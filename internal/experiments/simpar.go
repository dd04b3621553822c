package experiments

import (
	"fmt"
	"io"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/simpar"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-simpar: conservative host-sharded simulation of a geo-distributed
// fleet — the determinism-across-shard-counts table.
// ---------------------------------------------------------------------------

// SimParBackbone is the inter-site one-way propagation delay, and therefore
// the sharded run's lookahead: every site simulates a full 200 µs of
// virtual time per window before synchronizing. The intra-site fabric
// (100 ns links, 200 ns switch) never constrains the window because it
// never leaves a site's engine — which is what makes host-sharding pay:
// a site's Xen ticks, HCA completions and ResEx epochs are thousands of
// events per window, all shard-local.
const SimParBackbone = 200 * sim.Microsecond

// simParEpoch is the fleet telemetry period: a global boundary at which
// the coordinator samples every site's counters into the run fingerprint.
const simParEpoch = 2 * sim.Millisecond

// simParReplBuffer is the cross-site replication request size.
const simParReplBuffer = 8 << 10

// AblSimParRow is one (fleet size, shard count) cell. Every column except
// Shards is byte-identical down a fleet-size group — the shard partition is
// a wall-clock knob, and this table is the visible proof: windows, message
// counts, per-site totals and the epoch-sampled fingerprint must not move.
type AblSimParRow struct {
	// Sites is the fleet size: geo-distributed sites, each a full host
	// (Xen + HCA + ResEx + IBMon) on its own engine.
	Sites int `col:"sites,%5d,sites"`
	// Shards is the logical shard count the site population is partitioned
	// into (the -simshards axis; workers are bounded by Options.SimShards).
	Shards int `col:"shards,%6d,shards"`
	// Windows and Boundaries are the coordinator's conservative sync
	// counts; Messages is the cross-site deliveries merged (packets, acks).
	Windows    uint64 `col:"windows,%8d,windows"`
	Boundaries uint64 `col:"bounds,%8d,boundaries"`
	Messages   uint64 `col:"msgs,%9d,messages"`
	// Steps is the fleet-total executed event count.
	Steps uint64 `col:"steps,%10d,steps"`
	// LocalServed and ReplServed total the intra-site trading requests and
	// the cross-site replication requests completed in the measured window.
	LocalServed int64 `col:"local_srv,%12d,local_served"`
	ReplServed  int64 `col:"repl_srv,%11d,repl_served"`
	// LocalMeanUs is the fleet-mean intra-site request latency (µs).
	LocalMeanUs float64 `col:"local_mean_us,%13.1f,local_mean_us"`
	// FP fingerprints every telemetry epoch's per-site counters (hex
	// FNV-1a). Equal fingerprints mean the runs agreed at every 2 ms
	// boundary, not just at the end.
	FP string `col:"epoch-fnv,%17s,epoch_fnv"`
}

// AblSimParResult is the (fleet size × shard count) grid.
type AblSimParResult struct {
	LookaheadUs float64
	Rows        []AblSimParRow
}

// Title implements Result.
func (r *AblSimParResult) Title() string {
	return "SimPar: host-sharded conservative simulation, determinism across shard counts"
}

// WriteText implements Result.
func (r *AblSimParResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (lookahead %.0f µs)", r.Title(), r.LookaheadUs), r.Rows)
}

// WriteCSV implements Result.
func (r *AblSimParResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// geoSite is one site of the sharded geo ring: a single-host testbed with
// its own engine, manager and monitor, a local trading app, and its half of
// two replication streams (serving the previous site, streaming to the
// next).
type geoSite struct {
	tb    *cluster.Testbed
	host  *cluster.Host
	h     *simpar.Host
	mgr   *resex.Manager
	mon   *ibmon.Monitor
	local *cluster.App
	agent *benchex.Agent

	replServer *benchex.Server // serves site (i-1)'s stream
	replClient *benchex.Client // streams to site (i+1)
}

// geoSiteSpec is what a ring's driver decides for one site: the name
// prefix of its apps and VMs, its local trading client, and the seed of the
// replication stream it sends.
type geoSiteSpec struct {
	name     string
	local    benchex.ClientConfig
	replSeed int64
}

// geoRing is the sharded geo fleet abl-simpar and abl-geodiurnal share: the
// coordinator, the backbone, and the per-site rigs in ring order. Its
// driver sets the telemetry epoch: tick runs at every tickEvery boundary.
type geoRing struct {
	Co    *simpar.Coordinator
	Ic    *simpar.Interconnect
	sites []*geoSite

	tickEvery sim.Time
	tick      func()
}

// buildGeoRing assembles n single-host testbeds (nodes 1..n) in a ring,
// joined by a 200 µs backbone, partitioned into shards run by at most
// workers goroutines. Per site: a closed- or open-loop 64 KB local trading
// app (server and client VMs on the same host, traffic hairpinned through
// the site switch), a FreeMarket ResEx manager + IBMon over the site's
// domains, a paced 8 KB replication stream to the next site, and the
// serving end of the previous site's stream. Site i (node i+1) is named and
// seeded by specs[i].
func buildGeoRing(specs []geoSiteSpec, shards, workers int) (*geoRing, error) {
	n := len(specs)
	co := simpar.New(simpar.Config{
		Lookahead: SimParBackbone,
		Shards:    shards,
		Workers:   workers,
	})
	r := &geoRing{Co: co, Ic: simpar.NewInterconnect(co, SimParBackbone)}

	for i := range specs {
		tb := cluster.New(cluster.Config{})
		host := tb.AddHost(i + 1)
		s := &geoSite{tb: tb, host: host, h: r.Ic.AddSite(tb, host)}

		dom0 := host.Dom0VCPU()
		s.mon = ibmon.New(host.HV, dom0, ibmon.Config{})
		s.mgr = resex.New(tb.Eng, host.HV, s.mon, dom0, resex.NewFreeMarket(), resex.Config{})

		local, err := tb.NewApp(specs[i].name+"-local", host, host,
			benchex.ServerConfig{BufferSize: BaseBuffer}, specs[i].local)
		if err != nil {
			return nil, err
		}
		s.local = local
		if _, err := s.mgr.Manage(local.ServerVM.Dom, local.Server.SendCQ(), workload.BaseSLAUs); err != nil {
			return nil, err
		}
		s.agent = benchex.NewAgent(local.Server, local.ServerVM.Dom.ID(), s.mgr)
		r.sites = append(r.sites, s)
	}

	// Replication ring: site i streams to site (i+1) mod n. The VM pair
	// spans two testbeds, so it is assembled by hand — each end on its own
	// engine, joined only by QP numbers and the backbone.
	for i, src := range r.sites {
		dst := r.sites[(i+1)%n]
		srcName, dstName := specs[i].name, specs[(i+1)%n].name
		sVM := dst.host.NewVM(dstName + "-repl-in")
		server := benchex.NewServer(dst.tb.Eng, sVM.VCPU, sVM.PD, benchex.ServerConfig{
			Name: dstName + "-repl-srv", BufferSize: simParReplBuffer,
		})
		cVM := src.host.NewVM(srcName + "-repl-out")
		client, err := benchex.NewClient(src.tb.Eng, cVM.VCPU, cVM.PD, benchex.ClientConfig{
			Name: srcName + "-repl-cli", BufferSize: simParReplBuffer,
			Window: 4, Arrivals: benchex.Poisson{Rate: 4000},
			Seed: specs[i].replSeed,
		})
		if err != nil {
			return nil, err
		}
		sqp, err := server.NewEndpoint()
		if err != nil {
			return nil, err
		}
		if err := cluster.ConnectQPs(sqp, client.Endpoint(), dst.host, src.host); err != nil {
			return nil, err
		}
		if _, err := dst.mgr.Manage(sVM.Dom, server.SendCQ(), 0); err != nil {
			return nil, err
		}
		dst.replServer = server
		src.replClient = client
	}
	return r, nil
}

// Run arms o's observers on every site, launches every site's components,
// arms the global boundaries — the warmup stats reset, then the driver's
// telemetry epoch — runs warmup plus the measured window, closes the
// audits and shuts the ring down. Boundary
// callbacks run at coordinator barriers, with every site engine stopped,
// so they may read and mutate any site.
func (r *geoRing) Run(o Options) {
	var stops []func()
	for _, s := range r.sites {
		stops = append(stops, o.observe(s.tb.Eng, &snapshot.Source{
			TB: s.tb, Managers: []*resex.Manager{s.mgr},
			Monitors: []*ibmon.Monitor{s.mon}, SimPar: s.h,
		}))
	}
	for _, s := range r.sites {
		s.local.Start()
		s.replServer.Start()
		s.replClient.Start()
		s.agent.Start()
		s.mon.Start(s.tb.Eng)
		s.mgr.Start()
	}
	r.Co.At(o.Warmup, func() {
		for _, s := range r.sites {
			s.local.Server.ResetStats()
			s.local.Client.ResetStats()
			s.replServer.ResetStats()
			s.replClient.ResetStats()
		}
	})
	r.Co.Every(r.tickEvery, func() bool {
		r.tick()
		return true
	})
	r.Co.RunUntil(o.Warmup + o.Duration)
	for _, stop := range stops {
		stop()
	}
	r.Co.Shutdown()
}

// SimParFleet is a built abl-simpar geo fleet. Exported so BenchmarkSimPar
// can drive (Run) the identical scenario it reports on.
type SimParFleet struct {
	*geoRing

	epoch uint64
	fp    uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a accumulator, bytewise.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// BuildSimParFleet assembles a geo ring of sites sites whose local apps run
// closed loop. Seeding depends only on (seed, site), never on the shard
// axis, so every (sites, shards) cell simulates the identical fleet. The
// telemetry epoch samples every site's counters into the run fingerprint.
func BuildSimParFleet(sites, shards, workers int, seed int64) (*SimParFleet, error) {
	specs := make([]geoSiteSpec, sites)
	for i := range specs {
		node := int64(i + 1)
		specs[i] = geoSiteSpec{
			name:     fmt.Sprintf("site%d", node),
			local:    benchex.ClientConfig{BufferSize: BaseBuffer, Seed: seed + node*17},
			replSeed: seed + 7919*node,
		}
	}
	r, err := buildGeoRing(specs, shards, workers)
	if err != nil {
		return nil, err
	}
	f := &SimParFleet{geoRing: r, fp: fnvOffset}
	r.tickEvery = simParEpoch
	r.tick = func() {
		f.epoch++
		f.fp = fnvMix(f.fp, f.epoch)
		for _, s := range f.sites {
			f.fp = fnvMix(f.fp, uint64(s.local.Server.Stats().Served))
			f.fp = fnvMix(f.fp, uint64(s.local.Client.Stats().Received))
			f.fp = fnvMix(f.fp, uint64(s.replServer.Stats().Served))
		}
	}
	return f, nil
}

// Row extracts the deterministic cell for the result table (exported so
// BenchmarkSimPar can report the fingerprint of the runs it times).
func (f *SimParFleet) Row(sites, shards int) AblSimParRow {
	st := f.Co.Stats()
	row := AblSimParRow{
		Sites: sites, Shards: shards,
		Windows: st.Windows, Boundaries: st.Boundaries, Messages: st.Messages,
		Steps: f.Co.Steps(),
	}
	var lat float64
	var n int64
	for _, s := range f.sites {
		row.LocalServed += s.local.Server.Stats().Served
		row.ReplServed += s.replServer.Stats().Served
		cs := s.local.Client.Stats()
		lat += cs.Latency.Sum()
		n += cs.Latency.Count()
	}
	if n > 0 {
		row.LocalMeanUs = lat / float64(n)
	}
	fp := f.fp
	fp = fnvMix(fp, uint64(row.LocalServed))
	fp = fnvMix(fp, uint64(row.ReplServed))
	fp = fnvMix(fp, row.Messages)
	row.FP = fmt.Sprintf("%016x", fp)
	return row
}

// simParSizes is the fleet-size axis, scaled down for short CI windows
// (every site is a full simulated host, so the 2 s figure run affords a
// larger fleet than a 150 ms smoke run).
func simParSizes(o Options) []int {
	if o.Duration >= sim.Second {
		return []int{2, 4, 8, 16}
	}
	return []int{2, 4, 8}
}

// simParShardAxis is the logical shard counts swept for every fleet size.
var simParShardAxis = []int{1, 2, 4, 8}

// runSimParPoint builds, runs and reads one (sites, shards) cell.
func runSimParPoint(o Options, sites, shards int) (AblSimParRow, error) {
	f, err := BuildSimParFleet(sites, shards, o.SimShards, o.Seed)
	if err != nil {
		return AblSimParRow{}, err
	}
	f.Run(o)
	return f.Row(sites, shards), nil
}

// AblSimPar runs the (fleet size × shard count) grid. The shard axis is
// the point of the experiment: within a fleet-size group every row must be
// identical except the shards column, because the partition only decides
// which worker executes which host — never what the hosts compute. The
// seed feeding each cell depends on the fleet size alone, making the
// grouped rows directly comparable; the CI determinism gate additionally
// diffs whole runs at -simshards 1 vs 8.
func AblSimPar(o Options) (*AblSimParResult, error) {
	o = o.WithDefaults()
	var points []func(Options) (AblSimParRow, error)
	for _, sites := range simParSizes(o) {
		for _, shards := range simParShardAxis {
			points = append(points, func(o Options) (AblSimParRow, error) {
				return runSimParPoint(o, sites, shards)
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblSimParResult{LookaheadUs: float64(SimParBackbone) / 1e3, Rows: rows}, nil
}
