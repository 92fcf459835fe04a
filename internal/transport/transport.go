// Package transport implements a DCTCP-flavoured reliable transport
// (Alizadeh et al. [5], the protocol the paper's testbed runs): AIMD
// window control driven by the fraction of ECN-marked packets, delayed
// cumulative ACKs with immediate duplicate ACKs on out-of-order arrival,
// fast retransmit on three duplicate ACKs, and a retransmission timeout.
//
// The state machines are pure (no timers or I/O): the host simulation
// drives them with virtual time. Sequence numbers count MTU-sized
// segments, matching the simulator's packet granularity.
package transport

import "fastsafe/internal/sim"

// The DCTCP constants of the paper's testbed.
const (
	initCwnd     = 10       // initial window, segments
	minCwnd      = 2        // window floor, segments (TCP's two-segment floor)
	gain         = 1.0 / 16 // DCTCP alpha EWMA gain g
	ackEvery     = 8        // in-order segments per delayed ACK
	dupAckThresh = 3        // duplicate ACKs triggering fast retransmit
)

// Params tunes a sender. Zero fields take defaults.
type Params struct {
	MaxCwnd float64      // cap, segments (default 512)
	RTOMin  sim.Duration // minimum retransmission timeout (default 5ms)
}

func (p Params) withDefaults() Params {
	if p.MaxCwnd == 0 {
		p.MaxCwnd = 512
	}
	if p.RTOMin == 0 {
		p.RTOMin = 5 * sim.Millisecond
	}
	return p
}

// Ack is the feedback a receiver produces for the sender.
type Ack struct {
	CumAck  int64 // next expected segment
	ECNEcho bool  // congestion experienced since last ACK
	Dup     bool  // duplicate (out-of-order trigger)
}

// SenderStats counts sender-side events.
type SenderStats struct {
	Sent        int64
	Retransmits int64
	FastRtx     int64
	Timeouts    int64
}

// Sender is one flow's congestion-controlled sender.
type Sender struct {
	p Params

	next int64 // next new segment to send
	una  int64 // oldest unacked segment

	cwnd     float64
	ssthresh float64

	dupAcks int
	rtxSeq  int64 // segment to retransmit next, -1 if none
	recover int64 // fast-recovery end marker

	// DCTCP state.
	alpha     float64
	ecnSeen   int64
	ackedWin  int64
	windowEnd int64
	cutEnd    int64 // no further multiplicative cut until una passes this

	lastProgress sim.Time // last time una advanced (RTO reference)
	stats        SenderStats
}

// NewSender returns a sender starting at segment 0.
func NewSender(p Params) *Sender {
	p = p.withDefaults()
	return &Sender{
		p:        p,
		cwnd:     initCwnd,
		ssthresh: p.MaxCwnd,
		rtxSeq:   -1,
		recover:  -1,
	}
}

// Stats returns the sender's counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Alpha returns the current DCTCP congestion estimate.
func (s *Sender) Alpha() float64 { return s.alpha }

// Inflight returns the number of outstanding segments.
func (s *Sender) Inflight() int64 { return s.next - s.una }

// CanSend reports whether the window permits transmitting a segment.
func (s *Sender) CanSend() bool {
	if s.rtxSeq >= 0 {
		return true
	}
	return float64(s.next-s.una) < s.cwnd
}

// NextSend returns the segment to transmit and whether it is a
// retransmission. Call only when CanSend is true; the caller must then
// actually transmit and call OnSent.
func (s *Sender) NextSend() (seq int64, retransmit bool) {
	if s.rtxSeq >= 0 {
		return s.rtxSeq, true
	}
	return s.next, false
}

// OnSent records the transmission of seq at virtual time now.
func (s *Sender) OnSent(seq int64, now sim.Time) {
	s.stats.Sent++
	if seq == s.rtxSeq {
		s.rtxSeq = -1
		s.stats.Retransmits++
		return
	}
	if seq == s.next {
		if s.next == s.una {
			s.lastProgress = now
		}
		s.next++
	}
}

// OnAck processes receiver feedback, returning the number of segments
// newly acknowledged.
func (s *Sender) OnAck(a Ack, now sim.Time) int64 {
	if a.CumAck <= s.una {
		if a.Dup {
			s.dupAcks++
			if s.dupAcks == dupAckThresh && s.una > s.recover {
				// Fast retransmit + multiplicative decrease.
				s.rtxSeq = s.una
				s.recover = s.next
				s.ssthresh = maxf(s.cwnd/2, minCwnd)
				s.cwnd = s.ssthresh
				s.stats.FastRtx++
			}
		}
		return 0
	}
	acked := a.CumAck - s.una
	s.una = a.CumAck
	s.dupAcks = 0
	s.rtxSeq = -1
	s.lastProgress = now

	// NewReno partial-ACK recovery: while inside fast recovery, a
	// cumulative ACK that does not reach the recovery point means the next
	// unacked segment was also lost — retransmit it immediately instead of
	// waiting for three more duplicate ACKs (or an RTO). Tail drops
	// cluster, so this is what keeps clustered losses from stalling flows.
	if s.una < s.recover {
		s.rtxSeq = s.una
	}

	// DCTCP: account ECN feedback over roughly one window of ACKed data.
	s.ackedWin += acked
	if a.ECNEcho {
		s.ecnSeen += acked
	}
	if s.una >= s.windowEnd {
		f := 0.0
		if s.ackedWin > 0 {
			f = float64(s.ecnSeen) / float64(s.ackedWin)
		}
		s.alpha = (1-gain)*s.alpha + gain*f
		s.ecnSeen, s.ackedWin = 0, 0
		s.windowEnd = s.una + int64(s.cwnd) + 1
	}
	if a.ECNEcho && s.una > s.cutEnd {
		// One multiplicative cut per window, scaled by alpha. The cut also
		// ends slow start, as in DCTCP/TCP: ssthresh tracks the reduced
		// window so growth continues additively.
		s.cwnd = maxf(s.cwnd*(1-s.alpha/2), minCwnd)
		s.ssthresh = s.cwnd
		s.cutEnd = s.next
	}

	// Window growth: slow start below ssthresh, else one segment per RTT.
	for i := int64(0); i < acked; i++ {
		if s.cwnd < s.ssthresh {
			s.cwnd++
		} else {
			s.cwnd += 1 / s.cwnd
		}
	}
	s.cwnd = minf(s.cwnd, s.p.MaxCwnd)
	return acked
}

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() sim.Duration { return s.p.RTOMin }

// MaybeTimeout fires the retransmission timeout if no progress has been
// made for an RTO while data is outstanding. On timeout the window
// collapses and the sender goes back to una.
func (s *Sender) MaybeTimeout(now sim.Time) bool {
	if s.next == s.una {
		return false
	}
	if now-s.lastProgress < s.RTO() {
		return false
	}
	s.stats.Timeouts++
	s.ssthresh = maxf(s.cwnd/2, minCwnd)
	s.cwnd = minCwnd
	s.next = s.una // go-back-N
	s.rtxSeq = -1
	s.dupAcks = 0
	s.recover = -1
	s.lastProgress = now
	return true
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Receiver is one flow's receive-side reassembly and ACK generation.
type Receiver struct {
	rcvNxt  int64
	ooo     map[int64]bool
	pending int  // in-order segments since last ACK
	ecn     bool // congestion seen since last ACK
	ack     Ack  // the last ACK built, which OnData and FlushAck point at
}

// NewReceiver returns a receiver expecting segment 0. A receiver reads
// none of Params; it takes them so both ends of a flow build alike.
func NewReceiver(Params) *Receiver {
	return &Receiver{ooo: make(map[int64]bool)}
}

// RcvNxt returns the next expected segment.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// OnData processes an arriving segment, returning how many segments were
// newly delivered in order and the ACK to send, if any. Out-of-order and
// duplicate arrivals generate an immediate (duplicate) ACK — this is the
// mechanism that inflates the Tx ACK rate as drops increase (§2.2). The
// ACK lives in the receiver: the pointer stays valid only until the
// receiver's next OnData or FlushAck, so a caller that keeps the ACK
// copies it.
func (r *Receiver) OnData(seq int64, ecnMarked bool) (delivered int64, ack *Ack) {
	if ecnMarked {
		r.ecn = true
	}
	switch {
	case seq == r.rcvNxt:
		r.rcvNxt++
		delivered++
		for r.ooo[r.rcvNxt] {
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt++
			delivered++
		}
		r.pending += int(delivered)
		// ACK immediately when filling a gap (we had OOO data) or at the
		// delayed-ACK threshold.
		if r.pending >= ackEvery || len(r.ooo) > 0 || delivered > 1 {
			return delivered, r.makeAck(false)
		}
		return delivered, nil
	case seq > r.rcvNxt:
		r.ooo[seq] = true
		return 0, r.makeAck(true)
	default:
		// Duplicate of already-delivered data (spurious retransmit).
		return 0, r.makeAck(true)
	}
}

func (r *Receiver) makeAck(dup bool) *Ack {
	r.pending = 0
	r.ack = Ack{CumAck: r.rcvNxt, ECNEcho: r.ecn, Dup: dup}
	r.ecn = false
	return &r.ack
}

// FlushAck forces a delayed ACK out (host calls this on a delayed-ACK
// timer when traffic pauses). Like OnData's, the ACK it returns is valid
// until the receiver's next call.
func (r *Receiver) FlushAck() *Ack {
	if r.pending == 0 {
		return nil
	}
	return r.makeAck(false)
}
