package host

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/consistency"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
)

// recordShardEvent stamps one per-shard protocol result into a
// consistency log — scans contribute one event per shard, exactly like
// any single-shard operation on that shard's chain.
func recordShardEvent(log *consistency.Log, sess *client.ShardedSession, shard int, op []byte, res *core.Result) {
	log.Record(consistency.Event{
		Client: sess.ID(),
		Shard:  shard,
		Seq:    res.Seq,
		Stable: res.Stable,
		Op:     op,
		Result: res.Value,
		Chain:  sess.State(shard).HC,
	})
}

// A prefix scan over an 8-shard deployment fans out in one frame, merges
// into globally sorted results, honours the limit, and every per-shard
// reply verifies on that shard's chain — the stitched history passes the
// sharded fork-linearizability check.
func TestScatterScanEightShardsSorted(t *testing.T) {
	const shards = 8
	ids := []uint32{1, 2}
	st := newShardStack(t, stablestore.NewMemStore(), shards, ids)
	log := consistency.NewLog()

	writer := st.session(1)
	var want []string
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("scan/%03d", i)
		want = append(want, key)
		op := kvs.Put(key, fmt.Sprintf("v%d", i))
		res, err := writer.Do(op)
		if err != nil {
			t.Fatal(err)
		}
		shard, _ := writer.ShardFor(op)
		recordShardEvent(log, writer, shard, op, res)
	}
	// Keys outside the prefix stay out of the scan.
	if _, err := writer.Do(kvs.Put("other", "x")); err != nil {
		t.Fatal(err)
	}

	// Sanity: the keyspace actually spread over all 8 shards — otherwise
	// the test would not exercise the fan-out.
	used := map[int]bool{}
	for _, k := range want {
		used[kvsShard(t, writer, k)] = true
	}
	if len(used) != shards {
		t.Fatalf("keys cover %d shards, want %d", len(used), shards)
	}

	reader := st.session(2)
	scanOp := kvs.Scan("scan/", 0)
	scan, err := reader.Scan(scanOp)
	if err != nil {
		t.Fatalf("scatter-gather scan: %v", err)
	}
	entries, err := kvs.DecodeScanResult(scan.Merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("scan returned %d entries, want %d", len(entries), len(want))
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key }) {
		t.Fatal("merged scan not globally sorted")
	}
	for i, e := range entries {
		if e.Key != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Key, want[i])
		}
	}
	// Every shard contributed a verified reply; stamp them all.
	for shard, res := range scan.Results {
		if res == nil {
			t.Fatalf("shard %d missing from scan results", shard)
		}
		recordShardEvent(log, reader, shard, scanOp, res)
	}

	// A limited scan returns the global (not per-shard) prefix.
	limited, err := reader.Scan(kvs.Scan("scan/", 7))
	if err != nil {
		t.Fatal(err)
	}
	le, err := kvs.DecodeScanResult(limited.Merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(le) != 7 || le[0].Key != "scan/000" || le[6].Key != "scan/006" {
		t.Fatalf("limited scan = %v", le)
	}
	for shard, res := range limited.Results {
		recordShardEvent(log, reader, shard, kvs.Scan("scan/", 7), res)
	}

	// The stitched multi-shard history is fork-linearizable per shard —
	// including the scan events, whose per-shard results must replay from
	// each shard's own sub-history.
	if err := log.CheckSharded(kvs.Factory()); err != nil {
		t.Fatalf("stitched history: %v", err)
	}
	for shard := 0; shard < shards; shard++ {
		if forks := log.ShardForks(shard); len(forks) > 1 {
			t.Fatalf("clean shard %d split into %d fork groups", shard, len(forks))
		}
	}
}

func kvsShard(t *testing.T, sess *client.ShardedSession, key string) int {
	t.Helper()
	shard, err := sess.ShardFor(kvs.Get(key))
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// Forking one shard mid-scan poisons the whole scan — the victim shard's
// part fails verification — while the untouched shards keep serving the
// same session, and the per-shard logs localise the fork to the victim.
func TestScanFailsOnForkedShardMidScan(t *testing.T) {
	const shards = 8
	const victim = 3
	ids := []uint32{1, 2, 3}
	st := newShardStack(t, stablestore.NewMemStore(), shards, ids)
	log := consistency.NewLog()

	record := func(sess *client.ShardedSession, shard int, op []byte, res *core.Result) {
		recordShardEvent(log, sess, shard, op, res)
	}
	do := func(sess *client.ShardedSession, shard int, tag, val string) {
		t.Helper()
		op := kvs.Put(keyOnShard(shard, shards, tag), val)
		res, err := sess.Do(op)
		if err != nil {
			t.Fatalf("client %d shard %d: %v", sess.ID(), shard, err)
		}
		record(sess, shard, op, res)
	}

	// Honest phase: client 1 seeds every shard, and scans work.
	s1 := st.session(1)
	for shard := 0; shard < shards; shard++ {
		do(s1, shard, "c1", "pre")
	}
	if _, err := s1.Scan(kvs.Scan("c1", 0)); err != nil {
		t.Fatalf("honest scan: %v", err)
	}

	// The attack: the victim shard forks; client 3 connects and lands on
	// the fork for victim traffic, diverging its chain from the primary.
	if _, err := st.server.AttackFork(victim); err != nil {
		t.Fatal(err)
	}
	s3 := st.session(3)
	do(s1, victim, "c1", "primary") // primary partition advances...
	do(s3, victim, "c3", "fork")    // ...and so does the fork partition

	// Honest routing returns; client 3 resumes on a fresh connection. Its
	// victim context now belongs to the fork partition — the mid-scan
	// fork. The scan must fail, identifying the victim shard...
	st.server.RouteNewConnsTo(victim)
	conn, err := st.net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	s3b, err := client.ResumeSharded(conn, s3.States(), st.keys, kvs.New(), client.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s3b.Close()
	_, err = s3b.Scan(kvs.Scan("c1", 0))
	if err == nil {
		t.Fatal("scan succeeded across a forked shard")
	}
	var shardErr *client.ShardError
	if !errors.As(err, &shardErr) || shardErr.Shard != victim {
		t.Fatalf("scan error = %v, want ShardError on shard %d", err, victim)
	}

	// ...the victim's primary recorded the violation (halt)...
	if st.server.Enclave(victim).HaltedErr() == nil {
		t.Fatal("victim primary did not record the violation")
	}

	// ...and the other shards keep serving the very same session.
	for shard := 0; shard < shards; shard++ {
		if shard == victim {
			continue
		}
		if _, err := s3b.Do(kvs.Put(keyOnShard(shard, shards, "c3"), "after")); err != nil {
			t.Fatalf("clean shard %d refused traffic after the poisoned scan: %v", shard, err)
		}
	}
	// A scan, however, stays poisoned: its fan-out includes the victim
	// context, which refuses further use after detection.
	if _, err := s3b.Scan(kvs.Scan("c1", 0)); err == nil {
		t.Fatal("scan succeeded with a poisoned shard context")
	}

	// The stitched log localises the fork: only the victim's events
	// split into two groups.
	if err := log.CheckSharded(kvs.Factory()); err != nil {
		t.Fatalf("stitched history: %v", err)
	}
	for shard := 0; shard < shards; shard++ {
		forks := log.ShardForks(shard)
		wantGroups := 1
		if shard == victim {
			wantGroups = 2
		}
		if len(forks) != wantGroups {
			t.Fatalf("shard %d: %d fork groups (%v), want %d", shard, len(forks), forks, wantGroups)
		}
	}
}

// A scan against a single-shard "sharded" deployment degenerates to one
// verified op — the scatter path must not special-case N=1 incorrectly.
func TestScatterScanSingleShard(t *testing.T) {
	st := newShardStack(t, stablestore.NewMemStore(), 1, []uint32{1})
	s := st.session(1)
	if _, err := s.Do(kvs.Put("p/k", "v")); err != nil {
		t.Fatal(err)
	}
	scan, err := s.Scan(kvs.Scan("p/", 0))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := kvs.DecodeScanResult(scan.Merged)
	if err != nil || len(entries) != 1 || entries[0].Key != "p/k" {
		t.Fatalf("entries = %v, %v", entries, err)
	}
}

// The sharded session rejects scatter attempts that make no sense —
// non-scan ops through Scan, scans through Do.
func TestScatterScanMisuse(t *testing.T) {
	st := newShardStack(t, stablestore.NewMemStore(), 2, []uint32{1})
	s := st.session(1)
	if _, err := s.Scan(kvs.Put("k", "v")); err == nil {
		t.Fatal("Scan accepted a non-scan op")
	}
	// Plain Do still refuses unshardable ops (the pre-scatter behaviour).
	if _, err := s.Do(kvs.Scan("p", 0)); err == nil {
		t.Fatal("Do accepted a scan")
	}
	// And the session still works after both rejections.
	if _, err := s.Do(kvs.Put("k", "v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scan(kvs.Scan("", 0)); err != nil {
		t.Fatal(err)
	}
}
