package benchrun

import (
	"fmt"
	"time"
)

// RunReplicationAblation prices enclave-to-enclave chain replication:
// every sealed delta record is mirrored onto two peer enclave instances
// and replies are released only once a write quorum of durable copies
// exists (sync writes, group commit, 8 clients). The arms compare the
// unreplicated committer against the 3-copy replica set at increasing
// quorums — q=1 (local fsync only, peers catch up off the release
// path), q=2 (one peer ack joins the release path; the deployment now
// survives the primary's disk rolling back), q=3 (every copy durable
// before the client hears anything).
//
// The committer overlaps peer replication with the local fsync, so q=1
// costs only the dispatch overhead. At q>=2 the peer's mirror append
// must also fsync, and the simulated store models one shared drive (a
// single Sync at a time) — the quorum path therefore pays roughly one
// extra serialized fsync per commit group, batch depth amortizes it
// across ops exactly as it amortizes the local fsync, and the q/off
// ratio is the steady price of rollback *resistance* over rollback
// detection. sweepModels additionally repeats the grid under the
// sleeping latency model ("-sleep" points), where charged enclave time
// overlaps across instances regardless of core count — the shape stays,
// which is the point.
func RunReplicationAblation(cfg RunConfig, quorums, batches []int, sweepModels bool) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(quorums) == 0 {
		quorums = []int{1, 2, 3}
	}
	if len(batches) == 0 {
		batches = []int{1, 8, 16}
	}
	var points []AblationPoint
	models := []bool{cfg.SleepAll}
	if sweepModels {
		models = []bool{false, true}
	}
	for _, sleep := range models {
		mcfg := cfg
		mcfg.SleepAll = sleep
		suffix := ""
		modelName := "spin"
		if sleep {
			modelName = "sleep"
			if sweepModels {
				suffix = "-sleep"
			}
		}
		fmt.Fprintf(cfg.Out, "# Ablation — replication quorum × batch (sync writes, group commit, 8 clients, 2 peer replicas, %s model)\n", modelName)
		grid, err := replicationGrid(mcfg, quorums, batches, suffix)
		if err != nil {
			return nil, err
		}
		points = append(points, grid...)
	}
	return points, nil
}

func replicationGrid(cfg RunConfig, quorums, batches []int, suffix string) ([]AblationPoint, error) {
	const clients = 8
	const peerReplicas = 2
	var points []AblationPoint
	for _, b := range batches {
		off, err := measureOptions(SysLCM, clients, 100, true, b, cfg, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("lcm-repl-off%s batch=%d: %w", suffix, b, err)
		}
		offName := "lcm-repl-off" + suffix
		points = append(points, AblationPoint{Name: offName, X: b, Throughput: off.Throughput, MeanLat: off.MeanLat})
		fmt.Fprintf(cfg.Out, "%-18s batch=%-3d thr=%9.1f ops/s mean=%v\n",
			offName, b, off.Throughput, off.MeanLat.Round(time.Microsecond))
		for _, q := range quorums {
			quorum := q
			p, err := measureOptions(SysLCM, clients, 100, true, b, cfg, func(o *Options) {
				o.Replicas = peerReplicas
				o.Quorum = quorum
			}, nil)
			name := fmt.Sprintf("lcm-repl-q%d%s", q, suffix)
			if err != nil {
				return nil, fmt.Errorf("%s batch=%d: %w", name, b, err)
			}
			points = append(points, AblationPoint{Name: name, X: b, Throughput: p.Throughput, MeanLat: p.MeanLat})
			line := fmt.Sprintf("%-18s batch=%-3d thr=%9.1f ops/s mean=%v",
				name, b, p.Throughput, p.MeanLat.Round(time.Microsecond))
			if off.Throughput > 0 {
				line += fmt.Sprintf(" (%.2fx of off)", p.Throughput/off.Throughput)
			}
			fmt.Fprintln(cfg.Out, line)
		}
	}
	return points, nil
}
