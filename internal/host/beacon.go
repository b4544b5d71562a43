package host

import (
	"errors"
	"time"

	"lcm/internal/core"
	"lcm/internal/tee"
)

// Chain-heartbeat beacons (host side).
//
// The trusted context's beacon protocol (core.Trusted.handleBeacon) is
// tick-driven by the host: every Config.BeaconInterval the per-instance
// beacon loop asks the enclave to commit one beacon record, persists it
// through the ordinary path — the group committer coalesces it with
// in-flight batch records, so a beacon costs at most one extra record in
// an append that was happening anyway — and, strictly after the record is
// durable, issues the confirm ecall that claims the reserved platform
// counter tick. Running the loop per instance is the point: a cloned or
// forked instance beacons too, and two instances beaconing against one
// counter is exactly the collision the protocol detects.

// beaconLoop drives one instance's heartbeat until the server stops or
// the instance's enclave terminally leaves the serving state (halt,
// migration, reshard). On a halt it also drops any route override
// pointing at this instance, so subsequently accepted connections reach
// the shard's surviving primary instead of a dead clone — attack arms
// stay composable after detection fires.
func (s *Server) beaconLoop(inst *instance) {
	ticker := time.NewTicker(s.cfg.BeaconInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-s.stop:
			return
		}
		err := s.beaconOnce(inst)
		switch {
		case err == nil:
		case errors.Is(err, tee.ErrEnclaveHalted):
			s.clearOverridesTo(inst)
			return
		case errors.Is(err, core.ErrMigratedAway), errors.Is(err, core.ErrReshardedAway):
			return
		default:
			// Transient refusals (not yet provisioned, frozen mid-reshard,
			// enclave momentarily stopped for a restart): keep ticking.
		}
	}
}

// beaconOnce performs one beacon round: the reserve ecall behind the
// persistence barrier, then the record's hand-off to the committer, which
// confirms the beacon after the group's fsync exactly like it releases a
// batch's replies.
func (s *Server) beaconOnce(inst *instance) error {
	inst.pm.Lock()
	defer inst.pm.Unlock()
	s.healLocked(inst)
	epoch := inst.enclave.Epoch()
	resp, err := inst.enclave.Call(core.EncodeBeaconCall())
	if err != nil {
		return err
	}
	result, err := core.DecodeBatchResult(resp)
	if err != nil {
		return errors.New("host: malformed beacon response")
	}
	s.enqueueLocked(inst, commitReq{result: result, epoch: epoch})
	return nil
}

// confirmBeacons issues the beacon-confirm ecall for every just-durable
// result in the group that carries a beacon. The reserve/confirm protocol
// requires the counter increment strictly after durability — a crash in
// between leaves the counter one tick behind, which the next reserve
// tolerates, whereas confirming early would let a crash roll the chain
// back behind a confirmed increment and trip a false ErrCloneDetected.
// Errors are ignored: a halt here is the detection itself (surfaced
// through the enclave's HaltedErr and every subsequent call), and a "no
// beacon awaiting confirmation" refusal just means the enclave restarted
// in between, leaving the counter in the tolerated lag state.
func (c *committer) confirmBeacons(group []commitReq) {
	for _, r := range group {
		if r.result != nil && r.result.Beacon {
			_, _ = c.inst.enclave.Call(core.EncodeBeaconConfirmCall())
		}
	}
}

// clearOverridesTo drops every route override pointing at the given
// instance. Caller must NOT hold s.mu.
func (s *Server) clearOverridesTo(inst *instance) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for shard, idx := range s.routeOverride {
		if idx >= 0 && idx < len(s.instances) && s.instances[idx] == inst {
			delete(s.routeOverride, shard)
		}
	}
}
