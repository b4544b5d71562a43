package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/ycsb"
)

// reservoirSize is how many samples of each kind a session keeps for the
// latency medians. The median of the two sessions' samples then lies
// within ~1 % of the median of every op in the window.
const reservoirSize = 1 << 15

// reservoir keeps a uniform random sample of the values offered to it
// (Algorithm R) in memory allocated before the window. The benchmark's
// own buffers then neither grow with throughput nor shift the
// deployment's garbage-collection pace or its peak_rss_mb.
type reservoir struct {
	vals []float64
	seen int
	rng  *rand.Rand
}

func newReservoir(rng *rand.Rand) *reservoir {
	return &reservoir{vals: make([]float64, 0, reservoirSize), rng: rng}
}

func (r *reservoir) add(x float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, x)
	} else if j := r.rng.Intn(r.seen); j < len(r.vals) {
		r.vals[j] = x
	}
}

// sessionStats is what one closed-loop session saw inside the window.
type sessionStats struct {
	gets, puts *reservoir // call into Do/DoRead → verified return, us
	stable     *reservoir // verified reply → stability notice, us
	completed  int
	attempted  int
	failed     int
	userBytes  int64            // key+value bytes put
	acked      map[string]write // this session's acknowledged puts
	err        error            // first failure, which stops the session
}

// processSample is the process counters at one end of the window.
type processSample struct {
	at      time.Duration // since window start
	cpuUs   float64       // process user+sys CPU
	mallocs uint64
	gc      gcSample
}

// window is the outcome of one measured window across all sessions.
type window struct {
	start, end processSample
	sessions   []*sessionStats
	completed  int
	peakRSSMB  float64 // at the end of the window, before any analysis
}

// seconds is the measured window length.
func (w *window) seconds() float64 { return (w.end.at - w.start.at).Seconds() }

// unstable is a verified write-loop op awaiting its stability notice.
type unstable struct {
	seq   uint64
	reply time.Time
}

// measure drives every session in a closed loop (one op outstanding per
// session) for warmup+length and records the ops that start and finish
// inside [warm-up end, warm-up end + length]. With the deployment traced,
// tracing is on exactly during that window. Each session draws its ops
// from its own seed-derived stream.
func (d *deployment) measure(seed int64, warmup, length time.Duration) *window {
	// Write back what set-up and earlier deployments left dirty, so that
	// their I/O does not land in the window.
	syscall.Sync()
	winStart := time.Now().Add(warmup)
	winEnd := winStart.Add(length)
	win := &window{sessions: make([]*sessionStats, len(d.sessions))}

	var wg sync.WaitGroup
	for i, s := range d.sessions {
		// The samples' own stream leaves the op stream as the seed makes it.
		rng := rand.New(rand.NewSource(-(seed*1000 + int64(i) + 1)))
		st := &sessionStats{gets: newReservoir(rng), puts: newReservoir(rng), stable: newReservoir(rng), acked: make(map[string]write)}
		win.sessions[i] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.drive(s, d.conns[i], rand.New(rand.NewSource(seed*1000+int64(i)+1)), winStart, winEnd, st)
		}()
	}

	time.Sleep(time.Until(winStart))
	win.start = processNow(winStart)
	if d.tr != nil {
		d.tr.on.Store(true)
	}
	time.Sleep(time.Until(winEnd))
	if d.tr != nil {
		d.tr.on.Store(false)
	}
	win.end = processNow(winStart)
	wg.Wait()
	for _, st := range win.sessions {
		win.completed += st.completed
	}
	win.peakRSSMB = peakRSSMB()
	return win
}

// drive runs one session's closed loop until winEnd.
func (d *deployment) drive(s *client.Session, cc *clientConn, rng *rand.Rand, winStart, winEnd time.Time, st *sessionStats) {
	gen := d.w.gen()
	var waiting []unstable
	for {
		op := gen.Next(rng)
		isGet := op.Kind == ycsb.OpRead
		t0 := time.Now()
		if !t0.Before(winEnd) {
			return
		}
		in := !t0.Before(winStart)
		if cc != nil {
			cc.begin()
		}
		var res *core.Result
		var err error
		var c0 int64
		if d.tr != nil {
			c0 = d.tr.now()
		}
		switch {
		case isGet && d.w.snapReads:
			res, err = s.DoRead(kvs.Get(op.Key))
		case isGet:
			res, err = s.Do(kvs.Get(op.Key))
		default:
			res, err = s.Do(kvs.Put(op.Key, op.Value))
		}
		t1 := time.Now()
		in = in && !t1.After(winEnd)
		if in {
			st.attempted++
		}
		if err == nil {
			err = checkResult(isGet, res)
		}
		if err != nil {
			if in {
				st.failed++
			}
			st.err = fmt.Errorf("session %d: %w", s.ID(), err)
			return
		}
		if !isGet {
			st.acked[op.Key] = write{seq: res.Seq, value: op.Value}
		}
		// Stability notice: this reply reports every op up to res.Stable
		// stable. Reads on the snapshot path take no sequence number of
		// their own, but their replies carry the stable prefix too.
		for len(waiting) > 0 && waiting[0].seq <= res.Stable {
			if !waiting[0].reply.Before(winStart) && !t1.After(winEnd) {
				st.stable.add(float64(t1.Sub(waiting[0].reply)) / 1e3)
			}
			waiting = waiting[1:]
		}
		if !(isGet && d.w.snapReads) && res.Seq > res.Stable {
			waiting = append(waiting, unstable{seq: res.Seq, reply: t1})
		}
		if !in {
			continue
		}
		st.completed++
		if isGet {
			st.gets.add(float64(t1.Sub(t0)) / 1e3)
		} else {
			st.puts.add(float64(t1.Sub(t0)) / 1e3)
			st.userBytes += int64(len(op.Key) + len(op.Value))
		}
		if d.tr != nil {
			c1 := d.tr.now()
			rt := cc.take()
			d.tr.record(span{kind: kClientOp, start: c0, end: c1, id: rt.id, n: rt.frames})
			if rt.id != 0 && rt.recvEnd != 0 {
				d.tr.record(span{kind: kClientRT, start: rt.sendStart, end: rt.recvEnd, id: rt.id, cause: rt.id})
			}
		}
	}
}

// checkResult verifies the decoded service result of one op: a get must
// find its key (every key is loaded) with a full-size value, a put must
// succeed.
func checkResult(isGet bool, res *core.Result) error {
	r, err := kvs.DecodeResult(res.Value)
	if err != nil {
		return err
	}
	if isGet && (!r.Found || len(r.Value) != valueSize) {
		return fmt.Errorf("get returned found=%v with %d bytes, want a %d-byte value", r.Found, len(r.Value), valueSize)
	}
	return nil
}

// mergeAcked folds the load phase's and the sessions' acknowledged writes
// into the last acknowledged write per key.
func mergeAcked(loaded map[string]write, win *window) map[string]write {
	out := make(map[string]write, len(loaded))
	for k, v := range loaded {
		out[k] = v
	}
	for _, st := range win.sessions {
		for k, v := range st.acked {
			if v.seq > out[k].seq {
				out[k] = v
			}
		}
	}
	return out
}

// ---- process counters ----

func processNow(winStart time.Time) processSample {
	return processSample{at: time.Since(winStart), cpuUs: cpuNow(), mallocs: mallocsNow(), gc: gcNow()}
}

func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM, which
// getrusage reports as ru_maxrss in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

type gcSample struct {
	cpuSeconds float64
	cycles     uint64
}

func gcNow() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.cpuSeconds = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[1].Value.Uint64()
	}
	return g
}
