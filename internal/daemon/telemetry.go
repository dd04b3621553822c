package daemon

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"resex/internal/exchange"
	"resex/internal/resex"
	"resex/internal/workload"
)

// Telemetry is one sample of a session view: the managers' per-VM pricing
// state, per-tenant traffic and SLO figures, and per-host exchange markets.
// The server streams it to watchers as a line of JSON and answers the
// status verb with it; WriteText prints it for resexctl status and every
// resextop mode.
//
// Session.Telemetry fills AtNs, Epoch, Policy, VMs and Tenants. It leaves
// the rest zero, and they are omitempty, so its JSON does not depend on
// them. The server stamps its pacing state (Paused, the run-until target
// UntilNs), the replay log's length and the markets. resextop -fig numbers
// the experiment engine it reads from 1, counts its refreshes as epochs and
// sets each VM's Host and CPUPct, which only such engine samples print.
type Telemetry struct {
	AtNs    int64        `json:"at_ns"`
	Epoch   int64        `json:"epoch"`
	Policy  string       `json:"policy"`
	Paused  bool         `json:"paused,omitempty"`
	VMs     []VMStat     `json:"vms,omitempty"`
	Tenants []TenantStat `json:"tenants,omitempty"`
	UntilNs int64        `json:"until_ns,omitempty"`
	Log     int          `json:"log_entries,omitempty"`
	Markets []MarketStat `json:"markets,omitempty"`
	Engine  int          `json:"engine,omitempty"`
}

// VMStat is one managed VM's pricing state.
type VMStat struct {
	Name   string  `json:"name"`
	Rate   float64 `json:"rate"`
	CapPct int     `json:"cap_pct,omitempty"`
	Resos  int64   `json:"resos"`
	// MTURate is the VM's smoothed MTU count per ResEx interval
	// (resex.ManagedVM.MTURate), not per second.
	MTURate    float64 `json:"mtu_rate"`
	Confidence float64 `json:"confidence"`
	Interfered bool    `json:"interfered,omitempty"`
	Host       int     `json:"host,omitempty"`    // index of the VM's manager
	CPUPct     float64 `json:"cpu_pct,omitempty"` // CPU use since the previous sample
}

// TenantStat is one tenant's cumulative traffic and SLO state.
type TenantStat struct {
	Name            string  `json:"name"`
	Running         bool    `json:"running"`
	OfferedPerSec   float64 `json:"offered_per_sec"`
	CompletedPerSec float64 `json:"completed_per_sec"`
	Inflight        int     `json:"inflight"`
	Queued          int     `json:"queued"`
	P99             float64 `json:"p99_us"`
	AttainPct       float64 `json:"slo_attain_pct"`
}

// MarketStat is one host's trade book: the book's state export (epoch,
// trades, volume, utilization, holder positions) with the board's quote
// per dimension.
type MarketStat struct {
	Host int `json:"host"`
	exchange.State
	Price [exchange.NumDims]float64 `json:"price"`
}

// Telemetry samples the session at the current boundary. Pure observer.
func (s *Session) Telemetry() Telemetry {
	t := Telemetry{AtNs: int64(s.Now()), Epoch: s.epoch, Policy: s.PolicyName(), Tenants: TenantRows(s.wl)}
	for _, m := range s.wl.Mgrs {
		for _, vm := range m.VMs() {
			t.VMs = append(t.VMs, VMRow(vm))
		}
	}
	return t
}

// VMRow reads one managed VM's pricing state.
func VMRow(vm *resex.ManagedVM) VMStat {
	return VMStat{
		Name:       vm.Dom.Name(),
		Rate:       vm.Rate(),
		CapPct:     vm.Dom.Cap(),
		Resos:      int64(vm.Account.Balance()),
		MTURate:    vm.MTURate(),
		Confidence: vm.Confidence(),
		Interfered: vm.Interfered(),
	}
}

// TenantRows reads every tenant of a workload rig, stopped ones included.
func TenantRows(wl *workload.Engine) []TenantStat {
	var rows []TenantStat
	for _, tn := range wl.Tenants() {
		st := tn.Stats()
		rows = append(rows, TenantStat{
			Name:            tn.Spec.Name,
			Running:         tn.Running(),
			OfferedPerSec:   st.OfferedPerSec,
			CompletedPerSec: st.CompletedPerSec,
			Inflight:        st.Inflight,
			Queued:          st.Queued,
			P99:             st.P99,
			AttainPct:       st.AttainPct,
		})
	}
	return rows
}

// MarketRows reads the trade books of resex.Books, one row per host.
func MarketRows(books []*exchange.Book) []MarketStat {
	var rows []MarketStat
	for i, bk := range books {
		row := MarketStat{Host: i, State: bk.Checkpoint()}
		for d := range row.Price {
			row.Price[d] = bk.Board().Price(exchange.Dim(d))
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteText prints the sample: a header line, then the VM, tenant and
// market tables, each skipped when it has no rows. MTU/s scales
// VMStat.MTURate, MTUs per ResEx interval, to per second.
func (t Telemetry) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "[t=%v", time.Duration(t.AtNs))
	if t.Engine > 0 {
		fmt.Fprintf(&b, "  engine %d", t.Engine)
	}
	fmt.Fprintf(&b, "  epoch %d", t.Epoch)
	if t.Policy != "" {
		fmt.Fprintf(&b, "  policy %s", t.Policy)
	}
	b.WriteString("]")
	if t.Paused {
		b.WriteString("  [paused]")
	}
	if t.UntilNs > 0 {
		fmt.Fprintf(&b, "  [until %v]", time.Duration(t.UntilNs))
	}
	if t.Log > 0 {
		fmt.Fprintf(&b, "  [log %d]", t.Log)
	}
	b.WriteString("\n")

	for i, vm := range t.VMs {
		head, cols := fmt.Sprintf("%-22s", "VM"), fmt.Sprintf("%-22s", vm.Name)
		if t.Engine > 0 {
			head = fmt.Sprintf("%-4s %-22s %7s", "host", "VM", "CPU%")
			cols = fmt.Sprintf("%-4d %-22s %7.1f", vm.Host, vm.Name, vm.CPUPct)
		}
		if i == 0 {
			fmt.Fprintf(&b, "%s %7s %6s %12s %10s %6s %8s\n", head, "rate", "cap%", "resos", "MTU/s", "conf", "intf?")
		}
		// A cap of 0 is uncapped. A VM judged interfered-with is the
		// victim, and one charged above the base rate is taxed.
		capPct, flag := "-", ""
		if vm.CapPct > 0 {
			capPct = strconv.Itoa(vm.CapPct)
		}
		if vm.Interfered {
			flag = "victim"
		} else if vm.Rate > 1 {
			flag = "taxed"
		}
		fmt.Fprintf(&b, "%s %7.2f %6s %12d %10.0f %6.2f %8s\n",
			cols, vm.Rate, capPct, vm.Resos, vm.MTURate/resex.Interval.Seconds(), vm.Confidence, flag)
	}

	for i, tn := range t.Tenants {
		if i == 0 {
			fmt.Fprintf(&b, "%-10s %10s %11s %8s %7s %9s %7s\n",
				"tenant", "offered/s", "completed/s", "inflight", "queued", "p99(µs)", "SLO%")
		}
		name := tn.Name
		if !tn.Running {
			name += "*" // stopped
		}
		slo := "-"
		if tn.AttainPct > 0 {
			slo = fmt.Sprintf("%.1f", tn.AttainPct)
		}
		fmt.Fprintf(&b, "%-10s %10.0f %11.0f %8d %7d %9.0f %7s\n",
			name, tn.OfferedPerSec, tn.CompletedPerSec, tn.Inflight, tn.Queued, tn.P99, slo)
	}

	cpu, fab := exchange.DimCPU, exchange.DimFabric
	for _, m := range t.Markets {
		fmt.Fprintf(&b, "market host%d  epoch %-4d trades %-4d price cpu %.2f fabric %.2f membw %.2f  rate fabric/cpu %.2f\n",
			m.Host, m.Epoch, m.Trades, m.Price[cpu], m.Price[fab], m.Price[exchange.DimMemBW], m.Price[fab]/m.Price[cpu])
		for i, h := range m.Holders {
			if i == 0 {
				fmt.Fprintf(&b, "  %-22s %9s %9s %9s %9s %8s %8s\n",
					"holder", "cpu-ent", "cpu-spent", "fab-ent", "fab-spent", "fab-buy", "fab-sell")
			}
			fmt.Fprintf(&b, "  %-22s %9d %9d %9d %9d %8d %8d\n", h.Name,
				h.Ent[cpu], h.Spent[cpu], h.Ent[fab], h.Spent[fab], h.Bought[fab], h.Sold[fab])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
