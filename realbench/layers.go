package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported figure.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // timing samples behind a percentile; 0 for counts and ratios
}

// percentile returns the p-quantile (0 < p ≤ 1) of xs by nearest rank, or
// 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func dur(s span) float64 { return float64(s.end - s.start) }

// layerMetrics derives the per-layer figures of a traced window from its
// spans and counters. Timings are in µs unless the name says ms; a layer
// the workload does not exercise reports 0.
func layerMetrics(spans []span, tr *tracer, win *window, quorum int) []metric {
	var (
		clientOps                  []span
		rt                         = map[uint64]span{}
		resid                      = map[uint64]span{}
		calls                      = map[uint64]span{} // batch spans by id, reads by request
		batchOf                    = map[uint64]uint64{}
		appends, mirrors, snaps    []span
		batchUs, compactMs, readUs []float64
		busy                       float64
		batchOps, batches          int64
		compactions                int
	)
	for _, s := range spans {
		switch s.kind {
		case kClientOp:
			clientOps = append(clientOps, s)
		case kClientRT:
			rt[s.id] = s
		case kHostResidence:
			resid[s.id] = s
		case kCoreBatch, kCoreCompact:
			calls[s.id] = s
			busy += dur(s)
			batchOps += s.n
			batches++
			if s.kind == kCoreCompact {
				compactions++
				compactMs = append(compactMs, dur(s)/1e6)
			} else {
				batchUs = append(batchUs, dur(s)/1e3)
			}
		case kCoreCall:
			busy += dur(s)
		case kCoreRead:
			calls[s.id] = s
			readUs = append(readUs, dur(s)/1e3)
		case kCite:
			batchOf[s.cause] = s.id
		case kStoreAppend:
			appends = append(appends, s)
		case kMirrorAppend:
			mirrors = append(mirrors, s)
		case kStoreSnapshot:
			snaps = append(snaps, s)
		}
	}

	var opUs, selfUs, transportUs []float64
	for _, op := range clientOps {
		opUs = append(opUs, dur(op)/1e3)
		r, ok := rt[op.id]
		if !ok {
			continue
		}
		selfUs = append(selfUs, (dur(op)-dur(r))/1e3)
		if h, ok := resid[op.id]; ok {
			transportUs = append(transportUs, (dur(r)-dur(h))/1e3)
		}
	}

	var residUs, queueUs, releaseUs []float64
	for id, h := range resid {
		residUs = append(residUs, dur(h)/1e3)
		c, ok := calls[id] // a snapshot read
		if !ok {
			c, ok = calls[batchOf[id]]
		}
		if ok {
			queueUs = append(queueUs, float64(c.start-h.start)/1e3)
			releaseUs = append(releaseUs, float64(h.end-c.end)/1e3)
		}
	}

	var appendUs, mirrorUs, snapMs, quorumUs []float64
	var records int64
	mirrorEnds := map[uint64][]int64{}
	for _, m := range mirrors {
		mirrorUs = append(mirrorUs, dur(m)/1e3)
		mirrorEnds[m.cause] = append(mirrorEnds[m.cause], m.end)
	}
	for _, a := range appends {
		appendUs = append(appendUs, dur(a)/1e3)
		records += a.n
		// The group is durable once quorum copies exist: the primary's
		// append plus the earliest quorum-1 mirror appends of the same
		// group (matched by its first record).
		if ends, ok := mirrorEnds[a.cause]; ok && quorum > 1 {
			all := append([]int64{a.end}, ends...)
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			if len(all) >= quorum {
				quorumUs = append(quorumUs, float64(max(all[quorum-1]-a.end, 0))/1e3)
			}
		}
	}
	for _, s := range snaps {
		snapMs = append(snapMs, dur(s)/1e6)
	}

	var userBytes int64
	for _, st := range win.sessions {
		userBytes += st.userBytes
	}
	ops := float64(win.completed)
	windowNs := win.seconds() * 1e9
	first, last := win.start, win.end
	cpuUs := last.cpuUs - first.cpuUs
	storedBytes := tr.appendBytes.Load() + tr.snapshotBytes.Load() + tr.mirrorBytes.Load()
	p50 := func(name, unit string, xs []float64) metric {
		return metric{name: name, unit: unit, value: percentile(xs, 0.5), samples: len(xs)}
	}
	return []metric{
		{name: "client.op_us_p99", unit: "us", value: percentile(opUs, 0.99), samples: len(opUs)},
		p50("client.self_us_p50", "us", selfUs),
		{name: "client.frames_per_op", unit: "count", value: ratio(float64(tr.clientFrames.Load()), ops)},
		p50("transport.us_p50", "us", transportUs),
		{name: "transport.bytes_per_op", unit: "bytes", value: ratio(float64(tr.clientBytes.Load()), ops)},
		p50("host.residence_us_p50", "us", residUs),
		{name: "host.residence_us_p99", unit: "us", value: percentile(residUs, 0.99), samples: len(residUs)},
		p50("host.queue_us_p50", "us", queueUs),
		p50("host.release_us_p50", "us", releaseUs),
		p50("core.batch_us_p50", "us", batchUs),
		{name: "core.ops_per_batch", unit: "count", value: ratio(float64(batchOps), float64(batches))},
		{name: "core.busy_frac", unit: "frac", value: ratio(busy, windowNs)},
		p50("core.compact_ms_p50", "ms", compactMs),
		{name: "core.compactions_per_kop", unit: "1/kop", value: ratio(float64(compactions)*1000, ops)},
		p50("core.read_us_p50", "us", readUs),
		p50("stablestore.append_us_p50", "us", appendUs),
		{name: "stablestore.records_per_group", unit: "count", value: ratio(float64(records), float64(len(appends)))},
		{name: "stablestore.groups_per_kop", unit: "1/kop", value: ratio(float64(len(appends))*1000, ops)},
		{name: "stablestore.bytes_per_user_byte", unit: "ratio", value: ratio(float64(storedBytes), float64(userBytes))},
		p50("stablestore.snapshot_ms_p50", "ms", snapMs),
		p50("replication.append_us_p50", "us", mirrorUs),
		p50("replication.quorum_wait_us_p50", "us", quorumUs),
		{name: "runtime.gc_cpu_frac", unit: "frac", value: ratio((last.gc.cpuSeconds-first.gc.cpuSeconds)*1e6, cpuUs)},
		{name: "runtime.gc_per_kop", unit: "1/kop", value: ratio(float64(last.gc.cycles-first.gc.cycles)*1000, ops)},
	}
}
