package hca

// CQState is one completion queue's counter export. Producer/consumer
// indices pin exactly how many completions were delivered and reaped;
// deferred counts completions withheld by an active stall fault.
type CQState struct {
	CQN           uint32 `json:"cqn"`
	Produced      uint64 `json:"produced"`
	Consumed      uint64 `json:"consumed"`
	Overruns      int64  `json:"overruns"`
	StallEpisodes int64  `json:"stall_episodes"`
	Stalled       bool   `json:"stalled"`
	Deferred      int    `json:"deferred"`
}

// QPLedger is one queue pair's lifetime-counter export. The causality
// invariant (completions never outnumber posts) holds over these fields.
type QPLedger struct {
	QPN            uint32 `json:"qpn"`
	State          int    `json:"state"`
	SQHead         uint64 `json:"sq_head"`
	Outstanding    int    `json:"outstanding"`
	CompletedSends uint64 `json:"completed_sends"`
	PostedRecvs    uint64 `json:"posted_recvs"`
	CompletedRecvs uint64 `json:"completed_recvs"`
	PendingRecv    int    `json:"pending_recv"`
	Destroyed      bool   `json:"destroyed"`
}

// State is the adapter's deterministic state export: device-wide counters
// plus every live CQ and QP ledger, in PD allocation order (the device's
// deterministic sweep order).
type State struct {
	Node      int        `json:"node"`
	MsgsSent  int64      `json:"msgs_sent"`
	BytesSent int64      `json:"bytes_sent"`
	NextQPN   uint32     `json:"next_qpn"`
	NextCQN   uint32     `json:"next_cqn"`
	CQs       []CQState  `json:"cqs"`
	QPs       []QPLedger `json:"qps"`
}

// Checkpoint exports the HCA's current state. Pure observer.
func (h *HCA) Checkpoint() State {
	st := State{
		Node:      h.cfg.Node,
		MsgsSent:  h.msgsSent,
		BytesSent: h.bytesSent,
		NextQPN:   h.nextQPN,
		NextCQN:   h.nextCQN,
	}
	for _, pd := range h.pds {
		for _, cq := range pd.cqs {
			st.CQs = append(st.CQs, CQState{
				CQN:           cq.cqn,
				Produced:      cq.pi,
				Consumed:      cq.ci,
				Overruns:      cq.overruns,
				StallEpisodes: cq.stallEpisodes,
				Stalled:       cq.stalled > 0,
				Deferred:      len(cq.deferred),
			})
		}
		for _, qp := range pd.qps {
			st.QPs = append(st.QPs, QPLedger{
				QPN:            qp.qpn,
				State:          int(qp.state),
				SQHead:         qp.sqHead,
				Outstanding:    qp.outstanding,
				CompletedSends: qp.completedSends,
				PostedRecvs:    qp.postedRecvs,
				CompletedRecvs: qp.completedRecvs,
				PendingRecv:    qp.pendingRecv.Len(),
				Destroyed:      qp.destroyed,
			})
		}
	}
	return st
}
