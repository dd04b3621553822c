package exchange

// BookKeeper is implemented by pricing policies that keep a per-host trade
// book (resex.Fungible). Fleet code, the invariant auditor, snapshots and
// live views discover books through this interface instead of importing the
// policy package.
type BookKeeper interface {
	Book() *Book
}

// MarketHost is one host's listing on the fleet market.
type MarketHost struct {
	Node int
	Book *Book
}

// Market lists per-host books in one fleet-level view: placement views read
// each listed host's quotes (cheap hosts attract load, congested hosts repel
// it), and a non-empty market switches the rebalancer to rate-weighted
// scoring. Hosts are kept in Add order; all reads iterate that slice, so the
// market is deterministic regardless of who asks.
type Market struct {
	hosts []MarketHost
}

// NewMarket creates an empty market.
func NewMarket() *Market { return &Market{} }

// Add lists a host's book. Re-adding a node replaces its book.
func (mk *Market) Add(node int, bk *Book) {
	for i := range mk.hosts {
		if mk.hosts[i].Node == node {
			mk.hosts[i].Book = bk
			return
		}
	}
	mk.hosts = append(mk.hosts, MarketHost{Node: node, Book: bk})
}

// Hosts returns the listings in Add order.
func (mk *Market) Hosts() []MarketHost { return mk.hosts }

// BookOf returns the book listed for a node, or nil.
func (mk *Market) BookOf(node int) *Book {
	for _, h := range mk.hosts {
		if h.Node == node {
			return h.Book
		}
	}
	return nil
}
