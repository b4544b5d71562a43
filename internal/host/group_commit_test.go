package host

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// groupStack builds an LCM deployment over the given store, bootstrapped
// for nClients.
func groupStack(t *testing.T, store stablestore.Store, nClients int) (*Server, *core.Admin, *transport.InmemNetwork) {
	t.Helper()
	return groupStackWith(t, store, nClients, 0)
}

// groupStackWith is groupStack with a fixed compaction cadence
// (core.TrustedConfig.CompactEvery; 0 keeps the adaptive policy).
func groupStackWith(t *testing.T, store stablestore.Store, nClients, compactEvery int) (*Server, *core.Admin, *transport.InmemNetwork) {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-group")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	server, err := New(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName:  "kvs",
			NewService:   kvs.Factory(),
			Attestation:  attestation,
			CompactEvery: compactEvery,
		}),
		Store:     store,
		BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	listener, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(listener)
	t.Cleanup(func() {
		listener.Close()
		server.Shutdown()
	})
	ids := make([]uint32, nClients)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(server.ECall, ids); err != nil {
		t.Fatal(err)
	}
	return server, admin, net
}

func groupSession(t *testing.T, net *transport.InmemNetwork, admin *core.Admin, id uint32) *client.Session {
	t.Helper()
	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, id, admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
	t.Cleanup(func() { c.Close() })
	return c
}

// Concurrent clients over fsync-per-write storage: every operation
// succeeds, the committer actually coalesces appends (shared fsyncs), and
// an honest restart folds the grouped log exactly.
func TestGroupCommitConcurrentClients(t *testing.T) {
	model := &latency.Model{Scale: 1, SyncWrite: 500 * time.Microsecond}
	store, err := stablestore.NewFileStore(t.TempDir(), true, model)
	if err != nil {
		t.Fatal(err)
	}
	const clients, opsPer = 4, 10
	server, admin, net := groupStack(t, store, clients)

	sessions := make([]*client.Session, clients)
	for id := uint32(1); id <= clients; id++ {
		sessions[id-1] = groupSession(t, net, admin, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := uint32(1); id <= clients; id++ {
		c := sessions[id-1]
		wg.Add(1)
		go func(id uint32, c *client.Session) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := c.Do(kvs.Put(fmt.Sprintf("k%d", id), fmt.Sprintf("v%d", i))); err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", id, i, err)
					return
				}
			}
		}(id, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	groups, records, maxGroup := server.GroupCommitStats()
	if groups == 0 || records == 0 {
		t.Fatalf("no group-commit activity recorded: groups=%d records=%d", groups, records)
	}
	if records < groups {
		t.Fatalf("records=%d < groups=%d", records, groups)
	}
	if maxGroup < 1 {
		t.Fatalf("maxGroup = %d", maxGroup)
	}

	// Restart: the grouped log folds back to the exact state.
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart over grouped log: %v", err)
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != clients*opsPer {
		t.Fatalf("recovered seq = %d, want %d", status.Seq, clients*opsPer)
	}
	res, err := sessions[0].Do(kvs.Get("k3"))
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != fmt.Sprintf("v%d", opsPer-1) {
		t.Fatalf("k3 = %q after restart", kv.Value)
	}
}

// A crash of the coalesced fsync (CrashStore fails the whole group) must
// behave exactly like any lost write: the affected clients get errors, the
// enclave restarts onto the on-disk chain, the clients converge through
// retries, and no later restart reports a phantom rollback.
func TestGroupCommitCrashDuringCoalescedFsync(t *testing.T) {
	crash := stablestore.NewCrashStore(stablestore.NewMemStore())
	server, admin, net := groupStack(t, crash, 2)

	c1 := groupSession(t, net, admin, 1)
	c2 := groupSession(t, net, admin, 2)
	if _, err := c1.Do(kvs.Put("a", "v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Do(kvs.Put("b", "v1")); err != nil {
		t.Fatal(err)
	}

	// The disk dies for the next group commit; both clients' in-flight
	// operations land in the failed group (or in a poisoned successor).
	crash.FailAfter(0)
	var wg sync.WaitGroup
	fails := make([]error, 2)
	for i, c := range []*client.Session{c1, c2} {
		wg.Add(1)
		go func(i int, c *client.Session) {
			defer wg.Done()
			_, fails[i] = c.Do(kvs.Put(fmt.Sprintf("crash%d", i), "lost"))
		}(i, c)
	}
	wg.Wait()
	if fails[0] == nil && fails[1] == nil {
		t.Fatal("both writes succeeded despite the injected fsync crash")
	}
	crash.Reset()

	// Both clients converge via the Sec. 4.6.1 retry protocol; the failed
	// ops must surface exactly once.
	for i, c := range []*client.Session{c1, c2} {
		if fails[i] == nil {
			continue
		}
		if _, err := c.Recover(); err != nil {
			t.Fatalf("client %d recover: %v", i+1, err)
		}
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != 4 {
		t.Fatalf("seq after recovery = %d, want 4 (no duplicates, no losses)", status.Seq)
	}

	// More traffic and a clean restart: the chain has no gap, so recovery
	// must succeed — a halt here would be a false rollback positive.
	if _, err := c1.Do(kvs.Put("a", "v2")); err != nil {
		t.Fatal(err)
	}
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after crash cycle: %v", err)
	}
	res, err := c1.Do(kvs.Get("a"))
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "v2" {
		t.Fatalf("a = %q after crash/recover cycle, want v2", kv.Value)
	}
	if server.Enclave(0).HaltedErr() != nil {
		t.Fatalf("false rollback positive: %v", server.Enclave(0).HaltedErr())
	}
}

// Admin operations (which persist inside the ecall) interleave safely
// with group-committed traffic: the FrameECall/ECall barrier flushes the
// committer first, so the membership change lands on a log consistent
// with every acknowledged batch.
func TestGroupCommitAdminBarrier(t *testing.T) {
	model := &latency.Model{Scale: 1, SyncWrite: 200 * time.Microsecond}
	store, err := stablestore.NewFileStore(t.TempDir(), true, model)
	if err != nil {
		t.Fatal(err)
	}
	server, admin, net := groupStack(t, store, 2)

	c1 := groupSession(t, net, admin, 1)
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopTraffic:
				return
			default:
			}
			if _, err := c1.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
				return
			}
		}
	}()

	// Membership change mid-traffic: persists a fresh blob + truncation
	// through the enclave, behind the committer flush barrier.
	if err := admin.Join(server.ECall, 3); err != nil {
		t.Fatalf("Join during traffic: %v", err)
	}
	close(stopTraffic)
	wg.Wait()

	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after admin op: %v", err)
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.NumClients != 3 || status.AdminSeq != 1 {
		t.Fatalf("membership lost across restart: %+v", status)
	}
	c3 := groupSession(t, net, admin, 3)
	if _, err := c3.Do(kvs.Put("new", "client")); err != nil {
		t.Fatalf("new member op: %v", err)
	}
}

// countingStore counts the state-slot stores and log truncations that
// reach the inner store. When hold is set, the next state-slot store
// closes held and waits for hold to close — long enough for later results
// to queue at the committer.
type countingStore struct {
	inner stablestore.Store

	mu         sync.Mutex
	stores     int
	truncs     int
	hold, held chan struct{}
}

func (s *countingStore) Store(slot string, blob []byte) error {
	s.mu.Lock()
	var hold chan struct{}
	if slot == core.SlotStateBlob {
		s.stores++
		if s.hold != nil {
			hold = s.hold
			close(s.held)
			s.hold, s.held = nil, nil
		}
	}
	s.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return s.inner.Store(slot, blob)
}

func (s *countingStore) TruncateLog(slot string) error {
	s.mu.Lock()
	s.truncs++
	s.mu.Unlock()
	return s.inner.TruncateLog(slot)
}

func (s *countingStore) Load(slot string) ([]byte, error)     { return s.inner.Load(slot) }
func (s *countingStore) Append(slot string, rec []byte) error { return s.inner.Append(slot, rec) }
func (s *countingStore) LoadLog(slot string) ([][]byte, error) {
	return s.inner.LoadLog(slot)
}
func (s *countingStore) AppendGroup(slot string, recs [][]byte) error {
	return s.inner.AppendGroup(slot, recs)
}

func (s *countingStore) counts() (stores, truncs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stores, s.truncs
}

// Under CompactEvery 1 every batch result is a snapshot. Snapshots that
// queue up behind a slow store commit as ONE store of the last blob (plus
// one truncation): each later snapshot subsumes every earlier one.
func TestGroupCommitSnapshotRunStoresOnce(t *testing.T) {
	store := &countingStore{inner: stablestore.NewMemStore()}
	const clients = 4
	server, admin, net := groupStackWith(t, store, clients, 1)
	sessions := make([]*client.Session, clients)
	for id := uint32(1); id <= clients; id++ {
		sessions[id-1] = groupSession(t, net, admin, id)
	}
	stores0, truncs0 := store.counts()

	hold, held := make(chan struct{}), make(chan struct{})
	store.mu.Lock()
	store.hold, store.held = hold, held
	store.mu.Unlock()
	errs := make(chan error, clients)
	put := func(id int) {
		_, err := sessions[id-1].Do(kvs.Put(fmt.Sprintf("k%d", id), "v"))
		errs <- err
	}
	// The first snapshot holds the committer inside Store...
	go put(1)
	<-held
	// ...while three more batches execute and queue their snapshots.
	for id := 2; id <= clients; id++ {
		go put(id)
	}
	cm := server.instanceAt(0).cm
	for deadline := time.Now().Add(5 * time.Second); len(cm.ch) < clients-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d snapshots queued behind the held store", len(cm.ch))
		}
	}
	close(hold)
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	stores, truncs := store.counts()
	if got := stores - stores0; got != 2 {
		t.Fatalf("%d state-slot stores for %d snapshot results, want 2 (the held one + one for the queued run)", got, clients)
	}
	if got := truncs - truncs0; got != 2 {
		t.Fatalf("%d log truncations, want 2 (one per committed run)", got)
	}
	// The last blob subsumes the run: a restart recovers every write.
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if st, err := core.QueryStatus(server.ECall); err != nil || st.Seq != clients {
		t.Fatalf("recovered status = %+v, %v; want seq %d", st, err, clients)
	}
}
