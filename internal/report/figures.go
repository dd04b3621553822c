package report

import (
	"fmt"

	"resex/internal/experiments"
	"resex/internal/stats"
)

// RenderSVG converts any figure result into an SVG document. It dispatches
// on the concrete result type; unknown types report an error.
func RenderSVG(res experiments.Result) (string, error) {
	switch r := res.(type) {
	case *experiments.Fig1Result:
		return HistogramChart(
			"Figure 1: Request latency distribution",
			"request service time (µs)",
			[]*stats.Histogram{r.Normal, r.Interfered},
			[]string{
				fmt.Sprintf("Normal (p99 %.0f µs)", r.Normal.Quantile(0.99)),
				fmt.Sprintf("Interfered (p99 %.0f µs)", r.Interfered.Quantile(0.99)),
			},
		), nil

	case *experiments.Fig2Result:
		bars := make([]StackedBar, 0, len(r.Rows))
		for _, row := range r.Rows {
			label := fmt.Sprintf("%d", row.Servers)
			if row.Loaded {
				label += " (load)"
			}
			bars = append(bars, StackedBar{Label: label, Segments: []float64{row.PTime, row.CTime, row.WTime}})
		}
		return StackedBarChart("Figure 2: Latency components vs number of servers",
			"average latency (µs)", []string{"PTime", "CTime", "WTime"}, bars), nil

	case *experiments.Fig3Result:
		bars := make([]StackedBar, 0, len(r.Rows))
		for _, row := range r.Rows {
			bars = append(bars, StackedBar{
				Label:    fmt.Sprintf("%d (%d%%)", row.BufferRatio, row.Cap),
				Segments: []float64{row.PTime, row.CTime, row.WTime},
			})
		}
		return StackedBarChart("Figure 3: Latency with cap = 100/BufferRatio",
			"average latency (µs)", []string{"PTime", "CTime", "WTime"}, bars), nil

	case *experiments.Fig4Result:
		bars := make([]StackedBar, 0, len(r.Rows))
		for _, row := range r.Rows {
			label := fmt.Sprintf("%d", row.Cap)
			if row.Cap == 0 {
				label = "Base"
			}
			bars = append(bars, StackedBar{Label: label, Segments: []float64{row.PTime, row.CTime, row.WTime}})
		}
		return StackedBarChart("Figure 4: Latency vs interferer CPU cap",
			"average latency (µs)", []string{"PTime", "CTime", "WTime"}, bars), nil

	case *experiments.TimelineResult:
		lat := r.Latency.Downsample(400)
		lat.Name = "latency (µs)"
		cap := resampleToIterations(r.IntfCap, r.Latency.Len())
		cap.Name = "2MB VM cap (%)"
		ref := stats.NewSeries(fmt.Sprintf("base (%.0f µs)", r.BaseMean))
		intf := stats.NewSeries(fmt.Sprintf("interfered (%.0f µs)", r.IntfMean))
		if last, ok := lat.Last(); ok {
			ref.Add(0, r.BaseMean)
			ref.Add(last.X, r.BaseMean)
			intf.Add(0, r.IntfMean)
			intf.Add(last.X, r.IntfMean)
		}
		return LineChart(
			fmt.Sprintf("Figure %d: %s SLA performance", r.Figure, r.PolicyName),
			"iteration", "µs / percent",
			[]*stats.Series{lat, cap, ref, intf},
		), nil

	case *experiments.Fig6Result:
		rep := r.Timeline.RepResos.Downsample(400)
		rep.Name = "64KB VM Resos"
		intf := r.Timeline.IntfResos.Downsample(400)
		intf.Name = "2MB VM Resos"
		// Scale the cap (0–100) onto the Reso axis for a combined plot.
		cap := stats.NewSeries("2MB cap (% of alloc)")
		for _, p := range r.Timeline.IntfCap.Downsample(400).Points() {
			cap.Add(p.X, p.Y/100*r.Allocation)
		}
		return LineChart("Figure 6: Reso depletion and rated capping (FreeMarket)",
			"interval", "Resos", []*stats.Series{rep, intf, cap}), nil

	case *experiments.Fig8Result:
		groups, vals := bars(r.Rows, func(row experiments.Fig8Row) (string, []float64) {
			return row.Config, []float64{row.Mean}
		})
		return GroupedBarChart("Figure 8: Non-interference cases",
			"average latency (µs)", groups, []string{"latency"}, vals), nil

	case *experiments.Fig9Result:
		groups, vals := bars(r.Rows, func(row experiments.Fig9Row) (string, []float64) {
			return experiments.ByteSize(row.Buffer), []float64{row.Base, row.FreeMarket, row.IOShares}
		})
		return GroupedBarChart("Figure 9: Policies vs interfering buffer size",
			"average latency (µs)", groups, []string{"Base", "FreeMarket", "IOShares"}, vals), nil

	case *experiments.AblArbResult:
		groups, vals := bars(r.Rows, func(row experiments.AblArbRow) (string, []float64) {
			return row.Discipline, []float64{row.Mean, row.P99}
		})
		return GroupedBarChart("Ablation: link arbitration discipline",
			"victim latency (µs)", groups, []string{"mean", "p99"}, vals), nil

	case *experiments.AblMechResult:
		groups, vals := bars(r.Rows, func(row experiments.AblMechRow) (string, []float64) {
			return row.Mechanism, []float64{row.VictimMean}
		})
		return GroupedBarChart("Ablation: throttling mechanism",
			"victim latency (µs)", groups, []string{"victim latency"}, vals), nil

	case *experiments.AblEventsResult:
		order := seriesBy(r.Rows, func(row experiments.AblEventsRow) (string, float64, float64) {
			cap := row.Cap
			if cap == 0 {
				cap = 100
			}
			return row.Mode, float64(cap), row.ReqPerS
		})
		return LineChart("Ablation: completion mode vs CPU cap",
			"CPU cap (%)", "requests/s", order), nil

	case *experiments.AblCapacityResult:
		s := stats.NewSeries("worst app mean")
		sla := stats.NewSeries(fmt.Sprintf("SLA (%.0f µs)", r.SLA))
		for _, row := range r.Rows {
			s.Add(float64(row.Apps), row.WorstMean)
			sla.Add(float64(row.Apps), r.SLA)
		}
		return LineChart("Ablation: consolidation density",
			"collocated apps", "latency (µs)", []*stats.Series{s, sla}), nil

	case *experiments.AblPlacementResult:
		groups, vals := bars(r.Rows, func(row experiments.AblPlacementRow) (string, []float64) {
			return fmt.Sprintf("%s %dx%d", row.Strategy, row.Hosts, row.VMs), []float64{row.SLAPct, row.BulkMBs / 10}
		})
		return GroupedBarChart("Ablation: placement strategy vs SLA attainment",
			"SLA attainment (%) / bulk egress (10 MB/s)", groups,
			[]string{"SLA %", "bulk 10MB/s"}, vals), nil

	case *experiments.AblFaultsResult:
		order := seriesBy(r.Rows, func(row experiments.AblFaultsRow) (string, float64, float64) {
			return row.Stack, row.StormsPerSec, row.SLAPct
		})
		return LineChart("Ablation: fault intensity vs SLA attainment",
			"fault storms/s", "SLA attainment (%)", order), nil

	case *experiments.AblWorkloadResult:
		order := seriesBy(r.Rows, func(row experiments.AblWorkloadRow) (string, float64, float64) {
			return row.Policy, float64(row.LoadPct), row.P99
		})
		return LineChart("Workload: p99 latency vs offered load",
			"offered load (% of capacity)", "p99 latency (µs)", order), nil

	case *experiments.AblWorkloadMixResult:
		groups, vals := bars(r.Rows, func(row experiments.AblWorkloadMixRow) (string, []float64) {
			return row.Policy, []float64{row.LatAttainPct, row.BulkMBps / 10}
		})
		return GroupedBarChart("Workload: mixed tenant classes per policy",
			"lat SLO attainment (%) / bulk goodput (10 MB/s)", groups,
			[]string{"lat SLO %", "bulk 10MB/s"}, vals), nil

	case *experiments.AblWorkloadBurstResult:
		order := seriesBy(r.Rows, func(row experiments.AblWorkloadBurstRow) (string, float64, float64) {
			return row.Admission, float64(row.Factor), row.P99
		})
		return LineChart("Workload: burstiness vs tail latency",
			"burst factor (mean rate constant)", "p99 latency (µs)", order), nil

	case *experiments.AblFungibleResult:
		order := seriesBy(r.Rows, func(row experiments.AblFungibleRow) (string, float64, float64) {
			return row.Policy, float64(row.UtilPct), row.AttainPct
		})
		return LineChart("Fungible: SLO attainment vs bulk utilization",
			"bulk offered load (% of link)", "SLO attainment (%)", order), nil

	case *experiments.AblRestartResult:
		// Crash-restart rows and policy-flip rows share the mixed-class
		// columns, so one grouped frame covers both halves of the report.
		rows := append(append([]experiments.AblRestartRow{}, r.Restart...), r.Flip...)
		groups, vals := bars(rows, func(row experiments.AblRestartRow) (string, []float64) {
			return row.Config, []float64{row.LatAttainPct, row.BulkMBps / 10}
		})
		return GroupedBarChart("Restart: crash-restart and policy flip at T",
			"lat SLO attainment (%) / bulk goodput (10 MB/s)", groups,
			[]string{"lat SLO %", "bulk 10MB/s"}, vals), nil

	case *experiments.AblShardSchedResult:
		order := seriesBy(r.Rows, func(row experiments.AblShardSchedRow) (string, float64, float64) {
			return row.Mode, float64(row.Shards), row.ConflictPct
		})
		return LineChart("Shard: conflict rate vs shard count",
			"logical shards", "conflict rate (%)", order), nil

	case *experiments.AblSimParResult:
		// One series per shard count; the lines overlap exactly because
		// the sharded runs are byte-identical — that overlap is the result.
		order := seriesBy(r.Rows, func(row experiments.AblSimParRow) (string, float64, float64) {
			return fmt.Sprintf("%d shards", row.Shards), float64(row.Sites), float64(row.Steps) / 1e6
		})
		return LineChart("SimPar: executed events vs fleet size per shard count",
			"sites", "events (millions)", order), nil

	case *experiments.AblScaleSetResult:
		order := seriesBy(r.Rows, func(row experiments.AblScaleSetRow) (string, float64, float64) {
			return row.Mode, float64(row.Shards), row.ConflictPct
		})
		return LineChart("ScaleSet: gang conflict rate vs shard count (admission 100%, partials 0)",
			"logical shards", "conflict rate (%)", order), nil

	case *experiments.AblGeoDiurnalResult:
		// One series per shard count; exact overlap is the determinism
		// result, as in abl-simpar.
		byShards := map[int]*stats.Series{}
		var order []*stats.Series
		for _, c := range r.Cells {
			s := byShards[c.Shards]
			if s == nil {
				s = stats.NewSeries(fmt.Sprintf("%d shards", c.Shards))
				byShards[c.Shards] = s
				order = append(order, s)
			}
			for _, z := range c.PerZone {
				s.Add(float64(z.Slot), float64(z.Received))
			}
		}
		return LineChart("GeoDiurnal: per-slot received load per shard count",
			"diurnal slot", "requests received", order), nil

	case *experiments.AblMixedCritResult:
		order := seriesBy(r.Rows, func(row experiments.AblMixedCritRow) (string, float64, float64) {
			return row.Mode, float64(row.PressPct), row.AttainPct
		})
		return LineChart("MixedCrit: critical SLO attainment vs memory pressure",
			"offered memory traffic (% of budget)", "SLO attainment (%)", order), nil

	case *experiments.SoftRTResult:
		groups, vals := bars(r.Rows, func(row experiments.SoftRTRow) (string, []float64) {
			return row.Config, []float64{row.MissRate * 100}
		})
		return GroupedBarChart("Extension: soft-real-time deadline misses",
			"miss rate (%)", groups, []string{"miss rate"}, vals), nil

	default:
		return "", fmt.Errorf("report: no SVG renderer for %T", res)
	}
}

// resampleToIterations maps an interval-indexed series onto the iteration
// axis so it can share a frame with the latency timeline. Each of the (at
// most 400) output points takes the interval at the same fraction of the
// run, so a short series still spans the whole axis.
func resampleToIterations(s *stats.Series, iterations int) *stats.Series {
	out := stats.NewSeries(s.Name)
	n := s.Len()
	if n == 0 || iterations <= 0 {
		return out
	}
	m := min(n, 400)
	for i := 0; i < m; i++ {
		frac := float64(i) / float64(m)
		idx := int(frac * float64(n))
		if idx >= n {
			idx = n - 1
		}
		out.Add(frac*float64(iterations), s.At(idx).Y)
	}
	return out
}

// seriesBy groups rows into one line per key, in first-seen key order; each
// row adds its (x, y) point to its key's series, named by the key.
func seriesBy[R any](rows []R, point func(R) (key string, x, y float64)) []*stats.Series {
	byKey := map[string]*stats.Series{}
	var order []*stats.Series
	for _, row := range rows {
		key, x, y := point(row)
		s := byKey[key]
		if s == nil {
			s = stats.NewSeries(key)
			byKey[key] = s
			order = append(order, s)
		}
		s.Add(x, y)
	}
	return order
}

// bars maps rows to a grouped bar chart's group labels and per-group values.
func bars[R any](rows []R, group func(R) (label string, vals []float64)) ([]string, [][]float64) {
	labels := make([]string, 0, len(rows))
	vals := make([][]float64, 0, len(rows))
	for _, row := range rows {
		l, v := group(row)
		labels = append(labels, l)
		vals = append(vals, v)
	}
	return labels, vals
}
