package resex

import (
	"reflect"
	"testing"

	"resex/internal/exchange"
	"resex/internal/sim"
)

func TestFungibleChargesAndTracksDimensions(t *testing.T) {
	r := newRig(t, NewFungible(), true, 0)
	defer r.shutdown()
	r.tb.Eng.RunUntil(3 * sim.Second)

	fun := r.mgr.Policy().(*Fungible)
	bk := fun.Book()
	if bk.Epoch() < 2 {
		t.Fatalf("book settled %d epochs, want >= 2", bk.Epoch())
	}
	if len(bk.Holders()) != 2 {
		t.Fatalf("%d holders, want 2", len(bk.Holders()))
	}
	for _, vm := range r.mgr.VMs() {
		h := bk.Of(vm.Dom.Name())
		if h == nil {
			t.Fatalf("no holder for %s", vm.Dom.Name())
		}
		if h.Base(exchange.DimCPU) <= 0 || h.Base(exchange.DimFabric) <= 0 {
			t.Fatalf("%s has empty grant: %d/%d", h.Name(),
				h.Base(exchange.DimCPU), h.Base(exchange.DimFabric))
		}
		if vm.Account.IOCharged() == 0 {
			t.Fatalf("%s never charged for I/O", vm.Dom.Name())
		}
	}
	// The 2MB interferer drives the fabric; its spend must dominate.
	var intf exchange.HolderState
	for _, h := range bk.Checkpoint().Holders {
		if h.Name == r.intf.ServerVM.Dom.Name() {
			intf = h
		}
	}
	if intf.Spent[exchange.DimFabric]+intf.Sold[exchange.DimFabric] == 0 &&
		intf.Bought[exchange.DimFabric] == 0 {
		t.Fatal("interferer shows no fabric activity on the book")
	}
}

func TestFungibleCapsOverdraftUnderCongestion(t *testing.T) {
	// An overdraft beyond the burst allowance is enforced as soon as the
	// board prices the fabric as congested.
	r := newRig(t, NewFungible(), true, 0)
	defer r.shutdown()
	r.tb.Eng.RunUntil(6 * sim.Second)

	fun := r.mgr.Policy().(*Fungible)
	price := fun.Book().Board().Price(exchange.DimFabric)
	if price < enforcePrice {
		t.Fatalf("rig never congested the fabric: price %.2f", price)
	}
	intf := r.mgr.VM(r.intf.ServerVM.Dom.ID())
	if intf.Rate() <= 1 || intf.Cap() >= 100 {
		t.Fatalf("fabric priced at %.2f but interferer rate %v cap %v (unthrottled)",
			price, intf.Rate(), intf.Cap())
	}
	// The quiet reporting VM must never be capped by pace enforcement.
	rep := r.mgr.VM(r.rep.ServerVM.Dom.ID())
	if rep.Rate() > 1 {
		t.Fatalf("reporting VM rate = %v, want 1 (no overdraft)", rep.Rate())
	}
}

func TestFungibleLedgerConserves(t *testing.T) {
	r := newRig(t, NewFungible(), true, 0)
	defer r.shutdown()
	fun := r.mgr.Policy().(*Fungible)
	reports := 0
	fun.Book().Observe(func(rep exchange.EpochReport) {
		reports++
		if !rep.Net.IsZero() {
			t.Fatalf("epoch %d: ledger net %v, want zero", rep.Epoch, rep.Net)
		}
		for _, h := range fun.Book().Holders() {
			for d := exchange.Dim(0); d < exchange.NumDims; d++ {
				if h.Entitlement(d) < 0 {
					t.Fatalf("epoch %d: %s overdrafted %v", rep.Epoch, h.Name(), d)
				}
			}
		}
	})
	r.tb.Eng.RunUntil(4 * sim.Second)
	if reports < 3 {
		t.Fatalf("observed %d settlements, want >= 3", reports)
	}
}

func TestFungibleSyncHoldersOnUnmanage(t *testing.T) {
	r := newRig(t, NewFungible(), true, 0)
	defer r.shutdown()
	r.tb.Eng.RunUntil(1500 * sim.Millisecond)
	fun := r.mgr.Policy().(*Fungible)
	if len(fun.Book().Holders()) != 2 {
		t.Fatalf("%d holders before unmanage, want 2", len(fun.Book().Holders()))
	}
	r.mgr.Unmanage(r.intf.ServerVM.Dom.ID())
	r.tb.Eng.RunUntil(3 * sim.Second)
	if n := len(fun.Book().Holders()); n != 1 {
		t.Fatalf("%d holders after unmanage + settlement, want 1", n)
	}
}

func TestFungibleDeterministic(t *testing.T) {
	run := func() (State, exchange.State) {
		r := newRig(t, NewFungible(), true, 0)
		defer r.shutdown()
		r.tb.Eng.RunUntil(3 * sim.Second)
		fun := r.mgr.Policy().(*Fungible)
		return r.mgr.Checkpoint(), fun.Book().Checkpoint()
	}
	m1, b1 := run()
	m2, b2 := run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("manager checkpoints differ between identical runs")
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("book checkpoints differ between identical runs")
	}
}
