// Package resex is a full reproduction of "ResourceExchange: Latency-Aware
// Scheduling in Virtualized Environments with High Performance Fabrics"
// (Ranadive, Gavrilovska, Schwan — IEEE CLUSTER 2011) as a deterministic
// discrete-event simulation written in pure Go.
//
// The root package holds the benchmark harness (bench_test.go): one
// testing.B benchmark per figure of the paper's evaluation plus ablation
// benchmarks for the design choices DESIGN.md calls out. The implementation
// lives under internal/:
//
//   - internal/sim        discrete-event engine (virtual time, processes)
//   - internal/guestmem   guest-physical memory with introspection regions
//   - internal/xen        hypervisor: credit scheduler, CPU caps, XenStat
//   - internal/fabric     links, switch, per-MTU round-robin arbitration
//   - internal/hca        InfiniBand verbs: QPs, CQs, MRs/TPT, doorbells
//   - internal/ibmon      out-of-band I/O monitoring via introspection
//   - internal/resos      the Reso currency: accounts, epochs, charging
//   - internal/resex      the ResEx manager, FreeMarket and IOShares
//   - internal/trace      synthetic exchange workload + wire protocol
//   - internal/benchex    the BenchEx benchmark: server, client, agent
//   - internal/cluster    testbed assembly (hosts, VMs, wiring)
//   - internal/experiments figure-by-figure reproduction drivers
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
package resex
