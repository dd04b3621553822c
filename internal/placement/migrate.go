package placement

import (
	"errors"
	"fmt"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
)

// ErrPreCopyAborted is returned by Fleet.Migrate when the pre-copy round was
// cut short (fault injection, in this model). The migration rolls back
// cleanly: the source VM never stopped serving, the half-moved state is
// discarded and the transfer channel's resources are released.
var ErrPreCopyAborted = errors.New("placement: migration pre-copy aborted")

// The live-migration cost model's fixed parameters.
const (
	// DirtyFraction of StateBytes is re-sent in the stop-and-copy round —
	// pages the still-running guest dirtied during pre-copy.
	DirtyFraction = 0.05
	// Downtime is the fixed blackout on top of the dirty transfer (arch
	// state hand-off, device re-plumbing, connection rebinding).
	Downtime = 2 * sim.Millisecond
	// ChunkBytes is the migration transfer granularity (one SEND work
	// request, MTU-segmented on the wire like any other message).
	ChunkBytes = 1 << 20
	// MigrationWindow is the number of outstanding migration chunks.
	MigrationWindow = 4
)

// MigrationConfig parameterizes the live-migration cost model.
type MigrationConfig struct {
	// StateBytes is the VM state moved in the pre-copy round (memory image
	// working set). Default 64 MB.
	StateBytes int64
}

func (c MigrationConfig) withDefaults() MigrationConfig {
	if c.StateBytes <= 0 {
		c.StateBytes = 64 << 20
	}
	return c
}

// chunks converts a byte volume to whole transfer chunks.
func chunks(bytes int64) int {
	n := int((bytes + ChunkBytes - 1) / ChunkBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// migrationChannel is the dom0-to-dom0 RC connection state moved over.
type migrationChannel struct {
	srcPD, dstPD *hca.PD
	srcQP, dstQP *hca.QP
	scq          *hca.CQ
	srcBuf       guestmem.Addr
	srcMR        *hca.MR
}

// newMigrationChannel builds the transfer path: a protection domain on each
// host's dom0, a connected QP pair, and one chunk buffer per side. The
// destination posts every receive up front (all aimed at the same staging
// buffer — the model cares about wire traffic, not byte placement).
func newMigrationChannel(src, dst *cluster.Host, totalChunks int) (*migrationChannel, error) {
	ch := &migrationChannel{}
	ch.srcPD = src.HCA.AllocPD(src.HV.Dom0().Memory())
	ch.dstPD = dst.HCA.AllocPD(dst.HV.Dom0().Memory())

	ch.srcBuf = ch.srcPD.Space().Alloc(uint64(ChunkBytes), 64)
	var err error
	ch.srcMR, err = ch.srcPD.RegisterMR(ch.srcBuf, uint64(ChunkBytes), 0)
	if err != nil {
		return nil, fmt.Errorf("placement: migration source MR: %w", err)
	}
	dstBuf := ch.dstPD.Space().Alloc(uint64(ChunkBytes), 64)
	dstMR, err := ch.dstPD.RegisterMR(dstBuf, uint64(ChunkBytes), hca.AccessLocalWrite)
	if err != nil {
		return nil, fmt.Errorf("placement: migration dest MR: %w", err)
	}

	ch.scq = ch.srcPD.CreateCQ(MigrationWindow + 4)
	srcRCQ := ch.srcPD.CreateCQ(4)
	ch.srcQP = ch.srcPD.CreateQP(ch.scq, srcRCQ, MigrationWindow+2, 1)

	dstSCQ := ch.dstPD.CreateCQ(4)
	dstRCQ := ch.dstPD.CreateCQ(totalChunks + 4)
	ch.dstQP = ch.dstPD.CreateQP(dstSCQ, dstRCQ, 2, totalChunks+2)
	for i := 0; i < totalChunks; i++ {
		err := ch.dstQP.PostRecv(hca.RecvWR{
			ID: uint64(i), Addr: dstBuf, LKey: dstMR.Key(), Len: ChunkBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("placement: migration recv ring: %w", err)
		}
	}
	if err := cluster.ConnectQPs(ch.srcQP, ch.dstQP, src, dst); err != nil {
		return nil, fmt.Errorf("placement: migration connect: %w", err)
	}
	return ch, nil
}

// transfer pushes n chunks through the channel with the configured window,
// blocking on send completions (RC acks) event-style. The chunks are real
// SEND work requests: the fabric segments them into MTUs and arbitrates
// them against every other flow on the links, so migration visibly steals
// bandwidth from colocated workloads. abort, when non-nil, is polled at
// chunk boundaries; returning true fails the transfer with
// ErrPreCopyAborted after the in-flight window drains.
func (ch *migrationChannel) transfer(p *sim.Proc, n int, abort func() bool) error {
	posted, completed, outstanding := 0, 0, 0
	for completed < n {
		if abort != nil && abort() {
			// Stop posting; drain what is already on the wire so the QPs
			// close without flushing live work requests.
			for outstanding > 0 {
				if cqe, ok := ch.scq.Poll(); ok {
					if cqe.Status != hca.StatusOK {
						return fmt.Errorf("placement: migration chunk %d: %v", cqe.WRID, cqe.Status)
					}
					outstanding--
					continue
				}
				ch.scq.Signal().Wait(p)
			}
			return ErrPreCopyAborted
		}
		if posted < n && outstanding < MigrationWindow {
			err := ch.srcQP.PostSend(hca.SendWR{
				ID:        uint64(posted),
				LocalAddr: ch.srcBuf, LKey: ch.srcMR.Key(), Len: ChunkBytes,
			})
			if err != nil {
				return fmt.Errorf("placement: migration post: %w", err)
			}
			posted++
			outstanding++
			continue
		}
		for {
			if cqe, ok := ch.scq.Poll(); ok {
				if cqe.Status != hca.StatusOK {
					return fmt.Errorf("placement: migration chunk %d: %v", cqe.WRID, cqe.Status)
				}
				completed++
				outstanding--
				break
			}
			ch.scq.Signal().Wait(p)
		}
	}
	return nil
}

// close releases the channel's QPs (the PDs and staging MRs are dom0-side
// and garbage; nothing references them afterwards).
func (ch *migrationChannel) close() {
	ch.srcPD.DestroyQP(ch.srcQP)
	ch.dstPD.DestroyQP(ch.dstQP)
}

// Migrate live-migrates a placement's server VM to another worker host,
// pre-copy style:
//
//  1. the VM keeps serving while StateBytes move over the fabric (the
//     contention is the point — migration competes with workload I/O);
//  2. stop-and-copy: the app stops, ResEx/IBMon drop the VM, the dirtied
//     fraction is re-sent and the fixed downtime elapses;
//  3. the VM is rebuilt on the target (fresh domain + PCPU), its client
//     rebinds its RC connection to the new server endpoint, the target
//     host's ResEx manager takes over, and everything restarts.
//
// Must be called from inside a running sim proc (the rebalancer's, or a
// test driver's).
func (f *Fleet) Migrate(p *sim.Proc, pl *Placement, to *cluster.Host, mc MigrationConfig) (MigrationRecord, error) {
	mc = mc.withDefaults()
	src := f.Workers[pl.HostIdx]
	if to == src {
		return MigrationRecord{}, fmt.Errorf("placement: %s already on node%d", pl.Spec.Name, to.Node)
	}
	rec := MigrationRecord{VM: pl.Spec.Name, From: src.Node, To: to.Node, Start: f.TB.Eng.Now()}

	preChunks := chunks(mc.StateBytes)
	dirtyChunks := chunks(int64(DirtyFraction * float64(mc.StateBytes)))
	ch, err := newMigrationChannel(src, to, preChunks+dirtyChunks)
	if err != nil {
		return rec, err
	}
	defer ch.close()

	// Phase 1: pre-copy with the VM live. The fault injector can abort
	// this phase; the abort is clean by construction because nothing has
	// been torn down yet — the VM is still serving on the source, so
	// rollback is just releasing the transfer channel (the deferred close)
	// and recording the failure.
	var abort func() bool
	if f.faults != nil {
		srcNode := src.Node
		abort = func() bool { return f.faults.AbortPreCopy(srcNode) }
	}
	if err := ch.transfer(p, preChunks, abort); err != nil {
		if errors.Is(err, ErrPreCopyAborted) {
			f.Log.Failures = append(f.Log.Failures, MigrationFailure{VM: pl.Spec.Name, From: src.Node, To: to.Node})
		}
		return rec, err
	}

	// Phase 2: stop-and-copy.
	downStart := f.TB.Eng.Now()
	pl.Agent.Stop()
	pl.App.Stop()
	oldVM := pl.App.ServerVM
	f.Mgrs[pl.HostIdx].Unmanage(oldVM.Dom.ID())
	f.Mons[pl.HostIdx].UnwatchDomain(oldVM.Dom.ID())
	if err := ch.transfer(p, dirtyChunks, nil); err != nil {
		return rec, err
	}
	p.Sleep(Downtime)

	// Phase 3: resume on the target.
	pl.Migrations++
	pl.History = append(pl.History, pl.App.Server.Stats())
	newVM := to.NewVM(fmt.Sprintf("%s-server-vm-m%d", pl.Spec.Name, pl.Migrations))
	server := benchex.NewServer(f.TB.Eng, newVM.VCPU, newVM.PD, pl.App.Server.Config())
	src.RemoveVM(oldVM)
	sqp, err := server.NewEndpoint()
	if err != nil {
		return rec, err
	}
	cqp, err := pl.App.Client.Rebind()
	if err != nil {
		return rec, err
	}
	if err := cluster.ConnectQPs(sqp, cqp, to, f.Client); err != nil {
		return rec, err
	}
	pl.App.ServerVM = newVM
	pl.App.Server = server
	pl.App.ServerQP = sqp
	pl.HostIdx = f.workerIdx(to.Node)
	if err := f.manage(pl); err != nil {
		return rec, err
	}
	pl.App.Start()
	pl.Agent.Start()
	pl.intfEpochs, pl.lastIntf, pl.lastCap = 0, 0, 0

	rec.End = f.TB.Eng.Now()
	rec.Downtime = rec.End - downStart
	rec.FlowBytes = src.Uplink.FlowBytes(ch.srcQP.QPN())
	f.Log.Migrations = append(f.Log.Migrations, rec)
	return rec, nil
}
