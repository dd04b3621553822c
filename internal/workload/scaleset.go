package workload

import "resex/internal/schedshard"

// ScaleSetSpec declares an arktos-style scale-set arrival: N identical VMs
// that exist as a unit. The set is placed as a gang — either every member
// binds in one scheduling round or none do (schedshard's all-or-nothing
// contract) — because a scale-set that comes up at partial strength is
// worse than one that waits: its members are sized assuming the full
// population shares the work.
type ScaleSetSpec struct {
	// Name prefixes the members: member i is "<Name>/<i>".
	Name string
	// Size is the member population. Default 1.
	Size int
	// LatencySensitive and BufferSize classify every member's workload
	// exactly as schedshard.Spec does.
	LatencySensitive bool
	BufferSize       int
	// BytesPerSec is the per-member declared send rate the binds install
	// as resident profiles.
	BytesPerSec float64
}

func (s ScaleSetSpec) withDefaults() ScaleSetSpec {
	if s.Name == "" {
		s.Name = "scaleset"
	}
	if s.Size < 1 {
		s.Size = 1
	}
	return s
}

// Base returns the member template as a (Spec, VMInfo) pair — what
// EnqueueScaleSet hands to the gang scheduler, before per-member naming.
func (s ScaleSetSpec) Base() (schedshard.Spec, schedshard.VMInfo) {
	s = s.withDefaults()
	spec := schedshard.Spec{
		Name:             s.Name,
		LatencySensitive: s.LatencySensitive,
		BufferSize:       s.BufferSize,
	}
	vm := schedshard.VMInfo{
		Spec:        spec,
		BytesPerSec: s.BytesPerSec,
		BufferSize:  s.BufferSize,
	}
	return spec, vm
}

// EnqueueScaleSet queues the whole set on a shard scheduler as one gang and
// returns the gang id. Placement happens at the scheduler's next Round.
func EnqueueScaleSet(sched *schedshard.Scheduler, s ScaleSetSpec) uint64 {
	s = s.withDefaults()
	spec, vm := s.Base()
	return sched.EnqueueGang(spec, vm, s.Size)
}
