package workload

import (
	"testing"

	"resex/internal/resex"
)

// TestPolicyNames pins the policy table: each name builds its family,
// IOShares carries the open-loop tuning, and unknown names fail — former
// aliases and other spellings included.
func TestPolicyNames(t *testing.T) {
	for name, want := range map[string]string{
		"none":       "none",
		"freemarket": "FreeMarket",
		"ioshares":   "IOShares",
		"fungible":   "Fungible",
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
	for _, name := range []string{"laissez-faire", "passive", "fm", "ios", "fun", "IOShares"} {
		if _, err := Policy(name); err == nil {
			t.Errorf("unknown policy %q accepted", name)
		}
	}
}
