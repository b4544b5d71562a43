package host

import (
	"errors"
	"fmt"
	"time"

	"lcm/internal/core"
	"lcm/internal/tee"
)

// Membership epochs and client churn (host side).
//
// The trusted context's epoch-seal protocol (core.Trusted.handleEpochSeal)
// is tick-driven by the host, exactly like the heartbeat beacon: every
// Config.EpochInterval the per-instance epoch loop asks the enclave to
// seal a membership epoch — batching staged evictions, rotating kC when
// any fire, and resealing the witness-committee digests. The seal's
// result carries a sealed record (or a snapshot) the host MUST persist
// before anything else touches the chain: an epoch seal routed
// through a non-persisting path would leave the enclave's chain head
// ahead of the disk, and the next restart would halt on a phantom
// rollback. Both the ticker below and the generic ecall paths therefore
// funnel epoch seals through epochSealLocked.
//
// Churn frames (wire.FrameChurn) take the same path: one churn ecall per
// frame, behind the persistence barrier, committed through the committer
// and durable before the ack is released — the same contract batches
// honour for replies.

// epochLoop drives one instance's membership epochs until the server
// stops or the instance's enclave terminally leaves the serving state.
func (s *Server) epochLoop(inst *instance) {
	ticker := time.NewTicker(s.cfg.EpochInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-s.stop:
			return
		}
		_, err := s.instanceBarrierECall(inst, core.EncodeEpochSealCall())
		switch {
		case err == nil:
		case errors.Is(err, tee.ErrEnclaveHalted):
			s.clearOverridesTo(inst)
			return
		case errors.Is(err, core.ErrMigratedAway), errors.Is(err, core.ErrReshardedAway):
			return
		default:
			// Transient refusals (not yet provisioned, frozen mid-reshard):
			// keep ticking.
		}
	}
}

// epochSealLocked performs the epoch-seal ecall and commits its sealed
// output before returning. The caller holds inst.pm with the committer
// flushed, so the record chains directly onto the acknowledged history.
func (s *Server) epochSealLocked(inst *instance) ([]byte, error) {
	epoch := inst.enclave.Epoch()
	resp, err := inst.enclave.Call(core.EncodeEpochSealCall())
	if err != nil {
		return nil, err
	}
	result, err := core.DecodeBatchResult(resp)
	if err != nil {
		return nil, errors.New("host: malformed epoch seal response")
	}
	if err := s.commitLocked(inst, result, epoch); err != nil {
		return nil, fmt.Errorf("host: persist epoch seal: %w", err)
	}
	return resp, nil
}

// churnECall performs one churn ecall (a single sealed membership
// message) behind the persistence barrier and returns the sealed ack —
// nil for heartbeats, which the enclave deliberately leaves unanswered.
func (s *Server) churnECall(inst *instance, msg []byte) ([]byte, error) {
	inst.pm.Lock()
	defer inst.pm.Unlock()
	s.healLocked(inst)
	inst.cm.flush(s.stop)
	epoch := inst.enclave.Epoch()
	resp, err := inst.enclave.Call(core.EncodeChurnCall([][]byte{msg}))
	if err != nil {
		return nil, err
	}
	result, err := core.DecodeBatchResult(resp)
	if err != nil || len(result.Replies) != 1 {
		return nil, errors.New("host: malformed churn response")
	}
	if err := s.commitLocked(inst, result, epoch); err != nil {
		return nil, fmt.Errorf("host: persist churn: %w", err)
	}
	return result.Replies[0], nil
}
