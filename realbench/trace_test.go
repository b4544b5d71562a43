package main

import (
	"math"
	"math/rand"
	"testing"

	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/replication"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

func TestTraceFactoryKeepsProgramShape(t *testing.T) {
	inner := core.NewTrustedFactory(core.TrustedConfig{ServiceName: "kvs", NewService: kvs.Factory()})
	p := traceFactory(inner, newTracer())()
	if _, ok := p.(tee.ReadProgram); !ok {
		t.Fatal("traced program lost tee.ReadProgram")
	}
	if got, want := p.Identity(), inner().Identity(); got != want {
		t.Fatalf("Identity = %q, want %q", got, want)
	}
}

func TestTracedStoreRecordsAndPassesThrough(t *testing.T) {
	fs, err := stablestore.NewFileStore(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	s := &tracedStore{inner: fs, tr: tr}
	mirror := stablestore.NamespacedSlot("replica0", replication.SlotMirror)

	if err := s.Append(core.SlotDeltaLog, []byte("untraced")); err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	recs := [][]byte{[]byte("record-1"), []byte("record-2")}
	if err := s.AppendGroup(core.SlotDeltaLog, recs); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendGroup(mirror, recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(core.SlotStateBlob, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	tr.on.Store(false)

	spans := tr.snapshot()
	want := []spanKind{kStoreAppend, kMirrorAppend, kStoreSnapshot}
	if len(spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d", len(spans), len(want))
	}
	for i, k := range want {
		if spans[i].kind != k {
			t.Errorf("span %d is %s, want %s", i, kindNames[spans[i].kind], kindNames[k])
		}
	}
	if spans[0].cause != tr.blobKey(recs[0]) || spans[0].cause != spans[1].cause || spans[0].n != 2 {
		t.Errorf("append spans do not cite their group: %+v %+v", spans[0], spans[1])
	}

	var scanned int
	if err := stablestore.ScanLog(s, core.SlotDeltaLog, func([]byte) error { scanned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if scanned != 3 {
		t.Errorf("scanned %d delta records, want 3", scanned)
	}
	if len(s.Slots()) == 0 {
		t.Error("Slots lists nothing")
	}
	if err := stablestore.DeleteNamespace(s, "replica0"); err != nil {
		t.Errorf("DeleteNamespace: %v", err)
	}
}

func TestQuorumWaitUsesQuorumthCopy(t *testing.T) {
	tr := newTracer()
	spans := []span{
		{kind: kStoreAppend, start: 0, end: 1000, cause: 7, n: 1},
		{kind: kMirrorAppend, start: 0, end: 4000, cause: 7},
		{kind: kMirrorAppend, start: 0, end: 9000, cause: 7},
	}
	win := &window{end: processSample{at: 1e9}, completed: 1}
	for _, m := range layerMetrics(spans, tr, win, 2) {
		if m.name == "replication.quorum_wait_us_p50" && m.value != 3 {
			t.Fatalf("quorum wait = %v us, want 3 (second copy lands 3 us after the primary's)", m.value)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestReservoirSamplesUniformly(t *testing.T) {
	// A rising stream: a sampler that favoured early or late values would
	// move the median far from the middle.
	const n = 1_000_000
	r := newReservoir(rand.New(rand.NewSource(1)))
	for i := range n {
		r.add(float64(i))
	}
	if r.seen != n || len(r.vals) != reservoirSize {
		t.Fatalf("seen %d, kept %d; want %d, %d", r.seen, len(r.vals), n, reservoirSize)
	}
	if got := percentile(r.vals, 0.5); math.Abs(got-n/2) > 0.01*n/2 {
		t.Errorf("sampled median %v, want within 1 %% of %v", got, n/2)
	}
}
