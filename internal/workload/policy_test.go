package workload

import (
	"testing"

	"resex/internal/resex"
)

// TestPolicyNames pins the policy table: aliases and case fold to the same
// family, IOShares carries the open-loop tuning, and unknown names fail.
func TestPolicyNames(t *testing.T) {
	for name, want := range map[string]string{
		"none": "none", "Passive": "none",
		"freemarket": "FreeMarket", "FM": "FreeMarket",
		"ioshares": "IOShares", "ios": "IOShares",
		"fungible": "Fungible", "FUN": "Fungible",
	} {
		mk, err := Policy(name)
		if err != nil {
			t.Fatalf("Policy(%q): %v", name, err)
		}
		if got := mk().Name(); got != want {
			t.Errorf("Policy(%q) builds %s, want %s", name, got, want)
		}
	}
	mk, _ := Policy("ioshares")
	p, ok := mk().(*resex.IOShares)
	if !ok || p.UseDeviation || p.WarmupIntervals != 100 {
		t.Errorf("ioshares lost its open-loop tuning: %+v", mk())
	}
	if _, err := Policy("laissez-faire"); err == nil {
		t.Error("unknown policy accepted")
	}
}
