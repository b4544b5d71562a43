package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/client"
	"lcm/internal/consistency"
	"lcm/internal/core"
	"lcm/internal/host"
	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
	"lcm/internal/ycsb"
)

// Settings every workload shares. They are the lcm-server defaults:
// batch 16 with group commit, YCSB 40-byte keys and 100-byte values
// under zipfian skew.
const (
	batchSize = 16
	valueSize = 100
	// sessions is the closed-loop client count; it equals nproc on the
	// 2-core machines the benchmark targets. The registered group is
	// exactly these client ids: a third id would halt the enclave, and an
	// idle registered member would stall majority stability.
	sessions = 2
	// opTimeout bounds one reply wait; a healthy deployment answers in
	// well under a millisecond, so an expiry is a failed operation.
	opTimeout = 10 * time.Second
)

// workload is one traffic mix and deployment shape. Stable storage is
// asynchronous in every workload; see README.md for why fsync is not
// measured.
type workload struct {
	name      string
	records   int
	snapReads bool // gets travel DoRead and the host's snapshot read pool
	replicas  int
	quorum    int
	why       string
}

var workloads = []workload{
	{name: "ycsb-a", records: 1000,
		why: "the paper's Figs. 4-5 traffic: every op crosses client seal/verify, TCP, the batch loop, the ECall and the delta seal"},
	{name: "ycsb-a-100k-snapread", records: 100_000, snapReads: true,
		why: "100x the state: compaction re-seals a ~14 MB snapshot and gets go through the snapshot read pool"},
	{name: "ycsb-a-q2", records: 1000, replicas: 2, quorum: 2,
		why: "rollback-healing deployment: every commit group is mirrored to two replica enclaves and released at a two-copy quorum"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// gen returns the YCSB-A generator for this workload's record count.
func (w workload) gen() *ycsb.Workload { return ycsb.WorkloadA(w.records, valueSize) }

// write is one acknowledged put: its value and the sequence number the
// trusted context assigned it. The highest sequence number wins.
type write struct {
	seq   uint64
	value string
}

// deployment is one LCM server assembled from the public constructors,
// serving loopback TCP, with its client sessions connected and the
// records loaded.
type deployment struct {
	w        workload
	dir      string
	srv      *host.Server
	ln       transport.Listener
	served   chan struct{}
	sessions []*client.Session
	conns    []*clientConn    // nil entries when untraced
	tr       *tracer          // nil when untraced
	loaded   map[string]write // the load phase's acknowledged writes
}

// deploy builds a fresh deployment under dir. With tr set, the transport,
// trusted program and store are wrapped in tracing shims (off until the
// tracer is switched on); with history set, every verified write-loop op
// is recorded for the consistency checker.
func deploy(w workload, dir string, seed int64, model *latency.Model, tr *tracer, hist *history) (d *deployment, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d = &deployment{w: w, dir: dir, tr: tr, served: make(chan struct{})}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	platform, err := tee.NewPlatform("realbench", tee.WithLatencyModel(model))
	if err != nil {
		return d, err
	}
	attestation := tee.NewAttestationService()
	attestation.Register(platform)
	fileStore, err := stablestore.NewFileStore(filepath.Join(dir, "store"), false, model)
	if err != nil {
		return d, err
	}
	var store stablestore.Store = fileStore
	factory := core.NewTrustedFactory(core.TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: attestation,
	})
	if tr != nil {
		store = &tracedStore{inner: fileStore, tr: tr}
		factory = traceFactory(factory, tr)
	}
	d.srv, err = host.New(host.Config{
		Platform:      platform,
		Factory:       factory,
		Store:         store,
		BatchSize:     batchSize,
		GroupCommit:   true,
		SnapshotReads: w.snapReads,
		Replicas:      w.replicas,
		Quorum:        w.quorum,
	})
	if err != nil {
		return d, err
	}

	group := make([]uint32, sessions)
	for i := range group {
		group[i] = uint32(i + 1)
	}
	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(d.srv.ShardCall(0), group); err != nil {
		return d, fmt.Errorf("bootstrap: %w", err)
	}

	d.ln, err = transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return d, err
	}
	ln := d.ln
	if tr != nil {
		ln = &tracedListener{Listener: d.ln, tr: tr}
	}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns once the listener closes
	}()

	for _, id := range group {
		conn, err := transport.DialTCP(d.ln.Addr())
		if err != nil {
			return d, err
		}
		var cc *clientConn
		if tr != nil {
			cc = &clientConn{Conn: conn, tr: tr}
			conn = cc
		}
		cfg := client.Config{Timeout: opTimeout}
		if hist != nil {
			cfg.Observe = hist.observer(id)
		}
		s := client.New(conn, id, admin.CommunicationKey(), cfg)
		d.sessions = append(d.sessions, s)
		d.conns = append(d.conns, cc)
		if !member(group, s.ID()) {
			return d, fmt.Errorf("session id %d is outside the registered group %v", s.ID(), group)
		}
	}
	return d, d.load(seed)
}

func member(group []uint32, id uint32) bool {
	for _, g := range group {
		if g == id {
			return true
		}
	}
	return false
}

// history records verified write-loop ops for the consistency checker,
// from the first op on, until left runs out. It stops for every session
// at one instant, so each recorded stability claim still has its
// witnesses recorded: a session completes the op another session's
// stable prefix covers before it acknowledges it with its next invoke.
type history struct {
	log  *consistency.Log
	left atomic.Int64
}

func (h *history) observer(id uint32) func(client.Observation) {
	return func(ob client.Observation) {
		if h.left.Add(-1) < 0 {
			return
		}
		h.log.Record(consistency.Event{
			Client: id,
			Gen:    int(ob.Gen),
			Shard:  ob.Shard,
			Seq:    ob.Result.Seq,
			Stable: ob.Result.Stable,
			Op:     ob.Op,
			Result: ob.Result.Value,
			Chain:  ob.Chain,
		})
	}
}

// load writes every record through the first session, as one closed-loop
// client, with values drawn from the seed.
func (d *deployment) load(seed int64) error {
	gen := d.w.gen()
	rng := rand.New(rand.NewSource(seed))
	d.loaded = make(map[string]write, d.w.records)
	for _, key := range gen.LoadKeys() {
		value := gen.Value(rng)
		res, err := d.sessions[0].Do(kvs.Put(key, value))
		if err != nil {
			return fmt.Errorf("load %s: %w", key, err)
		}
		d.loaded[key] = write{seq: res.Seq, value: value}
	}
	return nil
}

// readBack reads every record after the measured window and compares it
// with the last acknowledged write (the highest sequence number among the
// load and both sessions' puts). The sessions split the keys.
func (d *deployment) readBack(acked map[string]write) error {
	keys := d.w.gen().LoadKeys()
	errs := make([]error, len(d.sessions))
	var wg sync.WaitGroup
	for i, s := range d.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := i; k < len(keys); k += len(d.sessions) {
				want, ok := acked[keys[k]]
				if !ok {
					errs[i] = fmt.Errorf("read-back: %s was never acknowledged", keys[k])
					return
				}
				got, err := d.get(s, keys[k])
				if err != nil {
					errs[i] = fmt.Errorf("read-back %s: %w", keys[k], err)
					return
				}
				if got != want.value {
					errs[i] = fmt.Errorf("read-back %s: got %.16q..., last acknowledged write (seq %d) was %.16q...",
						keys[k], got, want.seq, want.value)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// get reads one key through the path the workload's gets use and returns
// the value, failing on a missing key.
func (d *deployment) get(s *client.Session, key string) (string, error) {
	var res *core.Result
	var err error
	if d.w.snapReads {
		res, err = s.DoRead(kvs.Get(key))
	} else {
		res, err = s.Do(kvs.Get(key))
	}
	if err != nil {
		return "", err
	}
	r, err := kvs.DecodeResult(res.Value)
	if err != nil {
		return "", err
	}
	if !r.Found {
		return "", fmt.Errorf("key %s not found", key)
	}
	return string(r.Value), nil
}

// close tears the deployment down: sessions, listener, server, files.
func (d *deployment) close() {
	for _, s := range d.sessions {
		s.Close()
	}
	if d.ln != nil {
		d.ln.Close()
		<-d.served
	}
	if d.srv != nil {
		d.srv.Shutdown()
	}
	os.RemoveAll(d.dir)
}
