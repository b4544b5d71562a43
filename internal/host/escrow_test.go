package host

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/counter"
	"lcm/internal/stablestore"
	"lcm/internal/transport"
)

// bankStack deploys a sharded bank (the escrow service) over the store.
func bankStack(t *testing.T, store stablestore.Store, shards int, ids []uint32) *shardStack {
	return newServiceShardStack(t, store, shards, ids, "bank", counter.Factory())
}

// bankRead fetches one account's balance through a sharded session.
func bankRead(t *testing.T, sess *client.ShardedSession, acct string) int64 {
	t.Helper()
	res, err := sess.Do(counter.Read(acct))
	if err != nil {
		t.Fatalf("read %s: %v", acct, err)
	}
	cr, err := counter.DecodeResult(res.Value)
	if err != nil {
		t.Fatal(err)
	}
	return cr.Balance
}

// bankEscrow fetches one shard's escrowed total.
func bankEscrow(t *testing.T, sess *client.ShardedSession, shard int) int64 {
	t.Helper()
	res, err := sess.DoOn(shard, counter.EscrowTotalOp())
	if err != nil {
		t.Fatalf("escrow total shard %d: %v", shard, err)
	}
	cr, err := counter.DecodeResult(res.Value)
	if err != nil {
		t.Fatal(err)
	}
	return cr.Balance
}

// errStopAfter makes a journal hook that halts RunTransfer once the
// coordinator reaches the given phase — how the tests freeze a transfer
// between phases.
var errStop = errors.New("test: stop here")

func stopAfter(phase byte) func(*client.Transfer) error {
	return func(tx *client.Transfer) error {
		if tx.Phase == phase {
			return errStop
		}
		return nil
	}
}

// A full cross-shard transfer: prepare on the source shard, credit on the
// target shard, settle back — balances move, escrow drains, both chains
// stay live.
func TestCrossShardTransferCommits(t *testing.T) {
	const shards = 4
	st := bankStack(t, stablestore.NewMemStore(), shards, []uint32{1})
	sess := st.sessionWith(1, counter.New())

	from := keyOnShard(0, shards, "acct-src")
	to := keyOnShard(shards-1, shards, "acct-dst")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := sess.TransferShards(tx)
	if src == dst {
		t.Fatalf("accounts landed on one shard (%d); the test needs a crossing", src)
	}
	out, err := sess.RunTransfer(tx, nil)
	if err != nil || !out.OK {
		t.Fatalf("RunTransfer = %+v, %v", out, err)
	}
	if got := bankRead(t, sess, from); got != 70 {
		t.Fatalf("source = %d, want 70", got)
	}
	if got := bankRead(t, sess, to); got != 30 {
		t.Fatalf("target = %d, want 30", got)
	}
	for shard := 0; shard < shards; shard++ {
		if got := bankEscrow(t, sess, shard); got != 0 {
			t.Fatalf("shard %d escrow = %d after settle", shard, got)
		}
	}
	// An underfunded transfer is rejected cleanly, conserving everything.
	tx2, err := sess.NewTransfer(from, to, 1000)
	if err != nil {
		t.Fatal(err)
	}
	out, err = sess.RunTransfer(tx2, nil)
	if err != nil || out.OK {
		t.Fatalf("overdraft transfer = %+v, %v", out, err)
	}
	if got := bankRead(t, sess, from) + bankRead(t, sess, to); got != 100 {
		t.Fatalf("total after rejected transfer = %d, want 100", got)
	}
}

// Source-shard halt after prepare: the host rolls the source shard back
// (wiping the escrow record it acknowledged) and the shard halts on the
// coordinator's next operation. The transfer can neither settle nor
// abort — but no money is minted: the coordinator never credits, the
// target shard is untouched and keeps serving.
func TestTransferSourceHaltAfterPrepare(t *testing.T) {
	const shards = 2
	store := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := bankStack(t, store, shards, []uint32{1})
	sess := st.sessionWith(1, counter.New())

	from := keyOnShard(0, shards, "src")
	to := keyOnShard(1, shards, "dst")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunTransfer(tx, stopAfter(client.TxPrepared)); !errors.Is(err, errStop) {
		t.Fatalf("run stopped with %v, want errStop", err)
	}
	if tx.Phase != client.TxPrepared {
		t.Fatalf("phase = %d, want TxPrepared", tx.Phase)
	}

	// The attack: roll the source shard back one write (the prepare's
	// delta record) and restart it from the stale state.
	if err := st.server.AttackRollback(0, 1); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}

	// The abort path fails — the source shard halts on the first contact
	// with the coordinator's (now ahead) context...
	if err := sess.AbortTransfer(tx, nil); err == nil {
		t.Fatal("abort succeeded against a rolled-back source shard")
	}
	if st.server.Enclave(0).HaltedErr() == nil {
		t.Fatal("source shard did not record the violation")
	}
	if tx.Phase != client.TxPrepared {
		t.Fatalf("phase advanced to %d despite the failed abort", tx.Phase)
	}

	// ...and no money was minted: the target shard never saw a credit and
	// keeps serving.
	if got := bankRead(t, sess, to); got != 0 {
		t.Fatalf("target balance = %d, want 0 (no credit ever issued)", got)
	}
	if got := bankEscrow(t, sess, 1); got != 0 {
		t.Fatalf("target shard escrow = %d", got)
	}
}

// Target-shard rollback before credit: the coordinator learns (through
// a second session — status probes, another client's detection) that the
// target shard was rolled back, gives up before ever sending the credit,
// and the abort refunds the escrow on the healthy source shard — nothing
// lost, nothing minted. Once a credit attempt is actually in flight the
// abort is refused instead (TestAbortRefusedWhileCreditInFlight): an
// unresolved credit may have executed, and refunding on top of it would
// mint.
func TestTransferTargetRollbackBeforeCredit(t *testing.T) {
	const shards = 2
	store := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := bankStack(t, store, shards, []uint32{1, 2})
	sess := st.sessionWith(1, counter.New())

	from := keyOnShard(0, shards, "src")
	to := keyOnShard(1, shards, "dst")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}
	// Give the target shard history so a rollback against it is
	// detectable by its clients.
	if _, err := sess.Do(counter.Inc(to, 5)); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunTransfer(tx, stopAfter(client.TxPrepared)); !errors.Is(err, errStop) {
		t.Fatalf("run stopped with %v, want errStop", err)
	}

	// The attack: the target shard is rolled back one write and restarted.
	if err := st.server.AttackRollback(1, 1); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}

	// A second client touches the target shard and detects the rollback —
	// the coordinator's cue to give up before crediting.
	probe := st.sessionWith(2, counter.New())
	if _, err := probe.Do(counter.Inc(to, 1)); err == nil {
		// Client 2 had no history on the target; the shard still halts
		// when client 1's context arrives. Either way the rollback is
		// surfaced below.
		t.Log("probe op unexpectedly succeeded; relying on the halt check")
	}

	// The coordinator aborts without ever attempting the credit: the
	// escrow refunds on the (healthy) source shard.
	if err := sess.AbortTransfer(tx, nil); err != nil {
		t.Fatalf("abort before credit: %v", err)
	}
	if tx.Phase != client.TxAborted {
		t.Fatalf("phase = %d, want TxAborted", tx.Phase)
	}
	if got := bankRead(t, sess, from); got != 100 {
		t.Fatalf("source after refund = %d, want 100", got)
	}
	if got := bankEscrow(t, sess, 0); got != 0 {
		t.Fatalf("source escrow after refund = %d", got)
	}

	// Even a late credit attempt against the rolled-back target cannot
	// mint: client 1's target context is ahead of the rolled-back state,
	// so the shard halts instead of executing it.
	if _, err := sess.DoOn(1, counter.Credit(tx.ID, to, 30)); err == nil {
		t.Fatal("late credit executed against the rolled-back target")
	}
	if st.server.Enclave(1).HaltedErr() == nil {
		t.Fatal("target shard did not record the violation")
	}
}

// Duplicate-credit replay: a coordinator that lost its journal after the
// credit re-drives the transfer from TxPrepared. The re-issued credit is
// a fresh attested operation with the same transfer id — the target
// rejects it as a duplicate and the transfer completes without minting.
func TestTransferDuplicateCreditReplay(t *testing.T) {
	const shards = 2
	st := bankStack(t, stablestore.NewMemStore(), shards, []uint32{1})
	sess := st.sessionWith(1, counter.New())

	from := keyOnShard(0, shards, "src")
	to := keyOnShard(1, shards, "dst")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunTransfer(tx, stopAfter(client.TxCredited)); !errors.Is(err, errStop) {
		t.Fatalf("run stopped with %v, want errStop", err)
	}
	if got := bankRead(t, sess, to); got != 30 {
		t.Fatalf("target after credit = %d, want 30", got)
	}

	// The "journal loss": the coordinator restarts from a stale journal
	// entry that predates the credit.
	stale := &client.Transfer{ID: tx.ID, From: from, To: to, Amount: 30, Phase: client.TxPrepared}
	out, err := sess.RunTransfer(stale, nil)
	if err != nil || !out.OK {
		t.Fatalf("replayed run = %+v, %v", out, err)
	}
	if got := bankRead(t, sess, to); got != 30 {
		t.Fatalf("target after replay = %d, want 30 (duplicate credit must not mint)", got)
	}
	if got := bankRead(t, sess, from); got != 70 {
		t.Fatalf("source after replay = %d, want 70", got)
	}
	if got := bankEscrow(t, sess, 0) + bankEscrow(t, sess, 1); got != 0 {
		t.Fatalf("escrow after replay = %d", got)
	}
}

// dropNextRecvConn wraps a conn and swallows received frames while
// armed — the "reply lost in the network" failure.
type dropNextRecvConn struct {
	transport.Conn
	drop *int // frames still to swallow
}

func (c dropNextRecvConn) Recv() ([]byte, error) {
	for {
		frame, err := c.Conn.Recv()
		if err != nil || *c.drop == 0 {
			return frame, err
		}
		*c.drop--
	}
}

// AbortTransfer is refused while the credit's outcome is unknown (its
// reply was lost, the operation is pending on the target shard):
// refunding the escrow then would mint the already-applied credit. After
// Recover resolves the pending credit, re-running the transfer converges
// via the duplicate-credit rejection — conservation holds throughout.
func TestAbortRefusedWhileCreditInFlight(t *testing.T) {
	const shards = 2
	st := bankStack(t, stablestore.NewMemStore(), shards, []uint32{1})

	conn, err := st.net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	drop := 0
	sess := client.NewSharded(dropNextRecvConn{Conn: conn, drop: &drop}, 1, st.keys, counter.New(),
		client.Config{Timeout: 100 * time.Millisecond, Retries: 0})
	defer sess.Close()

	from := keyOnShard(0, shards, "src")
	to := keyOnShard(1, shards, "dst")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunTransfer(tx, stopAfter(client.TxPrepared)); !errors.Is(err, errStop) {
		t.Fatalf("run stopped with %v, want errStop", err)
	}

	// The credit executes on the target shard but its reply is lost.
	drop = 1
	if _, err := sess.RunTransfer(tx, nil); err == nil {
		t.Fatal("credit succeeded despite the dropped reply")
	}
	if !sess.HasPending(1) {
		t.Fatal("target shard shows no pending operation after the lost reply")
	}

	// Aborting now would refund the escrow on top of the applied credit.
	if err := sess.AbortTransfer(tx, nil); err == nil {
		t.Fatal("abort accepted while the credit outcome is unknown")
	}

	// Recovery resolves the pending credit; the re-run settles through
	// the duplicate-credit rejection. Nothing minted, nothing lost.
	if _, err := sess.Recover(1); err != nil {
		t.Fatalf("recover target shard: %v", err)
	}
	out, err := sess.RunTransfer(tx, nil)
	if err != nil || !out.OK {
		t.Fatalf("re-run after recovery = %+v, %v", out, err)
	}
	if got := bankRead(t, sess, from); got != 70 {
		t.Fatalf("source = %d, want 70", got)
	}
	if got := bankRead(t, sess, to); got != 30 {
		t.Fatalf("target = %d, want 30", got)
	}
	if got := bankEscrow(t, sess, 0) + bankEscrow(t, sess, 1); got != 0 {
		t.Fatalf("escrow = %d, want 0", got)
	}
}

// A transfer whose accounts share a shard still runs the escrow phases:
// a coordinator resuming from a stale journal must never double-execute,
// which the id-less atomic transfer op could not guarantee.
func TestSameShardTransferResumable(t *testing.T) {
	const shards = 2
	st := bankStack(t, stablestore.NewMemStore(), shards, []uint32{1})
	sess := st.sessionWith(1, counter.New())

	from := keyOnShard(0, shards, "a")
	to := keyOnShard(0, shards, "b")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}
	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.RunTransfer(tx, nil)
	if err != nil || !out.OK {
		t.Fatalf("RunTransfer = %+v, %v", out, err)
	}
	// The stale-journal resume: re-drive the whole transfer from TxInit.
	stale := &client.Transfer{ID: tx.ID, From: from, To: to, Amount: 30, Phase: client.TxInit}
	out, err = sess.RunTransfer(stale, nil)
	if err != nil || !out.OK {
		t.Fatalf("resumed run = %+v, %v", out, err)
	}
	if got := bankRead(t, sess, from); got != 70 {
		t.Fatalf("source = %d, want 70 (double execution?)", got)
	}
	if got := bankRead(t, sess, to); got != 30 {
		t.Fatalf("target = %d, want 30", got)
	}
}

// Randomized crash/restart fuzz with cross-shard transfers: seeded
// CrashStore budgets fail persistence at arbitrary points while clients
// run escrow transfers between shards, interleaved with honest restarts.
// After every round the coordinators re-drive their journaled transfers.
// Invariants, per seed:
//
//   - conservation: Σ balances + Σ escrow equals the seeded total once
//     every transfer is resolved — crashes may abandon escrow briefly,
//     but recovery neither loses nor mints a unit;
//   - no false rollback positives: a final restart of every shard folds
//     its chain cleanly.
func TestTransferCrashRestartFuzz(t *testing.T) {
	for _, seed := range []int64{3, 11, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			transferCrashFuzz(t, seed)
		})
	}
}

func transferCrashFuzz(t *testing.T, seed int64) {
	const (
		shards  = 3
		clients = 3
		rounds  = 20
		funding = 1000
	)
	rng := rand.New(rand.NewSource(seed))
	crash := stablestore.NewCrashStore(stablestore.NewMemStore())
	ids := []uint32{1, 2, 3}
	st := bankStack(t, crash, shards, ids)

	type fuzzClient struct {
		sess  *client.ShardedSession
		accts [shards]string // one private account per shard
		tx    *client.Transfer
	}
	fcs := make([]*fuzzClient, clients)
	var seeded int64
	for i, id := range ids {
		fc := &fuzzClient{sess: st.sessionWith(id, counter.New())}
		for shard := 0; shard < shards; shard++ {
			fc.accts[shard] = keyOnShard(shard, shards, fmt.Sprintf("c%d", id))
		}
		// Fund the client's shard-0 account (no crash budget active yet).
		if _, err := fc.sess.Do(counter.Inc(fc.accts[0], funding)); err != nil {
			t.Fatalf("fund client %d: %v", id, err)
		}
		seeded += funding
		fcs[i] = fc
	}

	// recoverShards drains pending ops on every shard (committer-initiated
	// restarts surface transient errors while chains re-fold).
	recoverShards := func(fc *fuzzClient) {
		t.Helper()
		for shard := 0; shard < shards; shard++ {
			if !fc.sess.HasPending(shard) {
				continue
			}
			var lastErr error
			for attempt := 0; attempt < 10; attempt++ {
				if _, err := fc.sess.Recover(shard); err != nil {
					lastErr = err
					time.Sleep(5 * time.Millisecond)
					continue
				}
				lastErr = nil
				break
			}
			if lastErr != nil {
				t.Fatalf("client %d shard %d never recovered: %v", fc.sess.ID(), shard, lastErr)
			}
		}
	}
	// resolve re-drives a client's in-flight transfer to completion.
	resolve := func(fc *fuzzClient) {
		t.Helper()
		if fc.tx == nil {
			return
		}
		var lastErr error
		for attempt := 0; attempt < 10; attempt++ {
			recoverShards(fc)
			if _, err := fc.sess.RunTransfer(fc.tx, nil); err != nil {
				lastErr = err
				time.Sleep(5 * time.Millisecond)
				continue
			}
			lastErr = nil
			break
		}
		if lastErr != nil {
			t.Fatalf("client %d transfer %s stuck in phase %d: %v",
				fc.sess.ID(), fc.tx.ID, fc.tx.Phase, lastErr)
		}
		fc.tx = nil
	}

	for round := 0; round < rounds; round++ {
		if rng.Intn(2) == 0 {
			crash.FailAfter(rng.Intn(5))
		}
		for _, fc := range fcs {
			// Pick a random cross(ish)-shard pair of this client's own
			// accounts and run one transfer; a crash mid-run leaves fc.tx
			// journaled for the recovery phase below.
			from := fc.accts[rng.Intn(shards)]
			to := fc.accts[rng.Intn(shards)]
			tx, err := fc.sess.NewTransfer(from, to, int64(rng.Intn(5)+1))
			if err != nil {
				t.Fatal(err)
			}
			fc.tx = tx
			if _, err := fc.sess.RunTransfer(tx, nil); err == nil {
				fc.tx = nil
			}
		}

		crash.Reset()
		for _, fc := range fcs {
			resolve(fc)
		}
		if rng.Intn(3) == 0 {
			shard := rng.Intn(shards)
			if err := st.server.Enclave(shard).Restart(); err != nil {
				t.Fatalf("round %d: honest restart of shard %d: %v", round, shard, err)
			}
		}
	}

	// Final recovery: every shard restarts from disk without halting — a
	// halt would be a false rollback positive.
	crash.Reset()
	for shard := 0; shard < shards; shard++ {
		if err := st.server.Enclave(shard).Restart(); err != nil {
			t.Fatalf("final restart of shard %d: %v", shard, err)
		}
		if err := st.server.Enclave(shard).HaltedErr(); err != nil {
			t.Fatalf("false rollback positive on shard %d: %v", shard, err)
		}
	}

	// Conservation: balances plus any residual escrow equal the funding.
	probe := fcs[0]
	var total int64
	for _, fc := range fcs {
		for _, acct := range fc.accts {
			total += bankRead(t, probe.sess, acct)
		}
	}
	var escrow int64
	for shard := 0; shard < shards; shard++ {
		escrow += bankEscrow(t, probe.sess, shard)
	}
	if escrow != 0 {
		t.Fatalf("escrow = %d after resolving every transfer, want 0", escrow)
	}
	if total != seeded {
		t.Fatalf("conservation violated: balances sum to %d, want %d", total, seeded)
	}
}
