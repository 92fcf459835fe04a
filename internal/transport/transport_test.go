package transport

import (
	"testing"
	"testing/quick"

	"fastsafe/internal/race"
	"fastsafe/internal/sim"
)

func TestSenderInitialWindow(t *testing.T) {
	s := NewSender(Params{})
	if s.Cwnd() != 10 {
		t.Fatalf("initial cwnd = %v, want 10", s.Cwnd())
	}
	if !s.CanSend() {
		t.Fatal("fresh sender cannot send")
	}
}

func TestSenderWindowLimitsInflight(t *testing.T) {
	s := NewSender(Params{})
	for i := 0; i < initCwnd; i++ {
		if !s.CanSend() {
			t.Fatalf("cannot send segment %d within window", i)
		}
		seq, rtx := s.NextSend()
		if rtx || seq != int64(i) {
			t.Fatalf("NextSend = %d,%v", seq, rtx)
		}
		s.OnSent(seq, 0)
	}
	if s.CanSend() {
		t.Fatal("window exceeded")
	}
	if s.Inflight() != initCwnd {
		t.Fatalf("inflight = %d, want %d", s.Inflight(), initCwnd)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	s := NewSender(Params{})
	s.OnSent(0, 0)
	s.OnSent(1, 0)
	before := s.Cwnd()
	s.OnAck(Ack{CumAck: 2}, 100)
	if s.Cwnd() != before+2 {
		t.Fatalf("cwnd = %v, want slow-start growth to %v", s.Cwnd(), before+2)
	}
}

func TestCongestionAvoidanceGrowth(t *testing.T) {
	s := NewSender(Params{})
	s.ssthresh = 5 // below cwnd: congestion avoidance
	s.OnSent(0, 0)
	before := s.Cwnd()
	s.OnAck(Ack{CumAck: 1}, 100)
	growth := s.Cwnd() - before
	if growth <= 0 || growth > 0.2 {
		t.Fatalf("CA growth = %v, want ~1/cwnd", growth)
	}
}

func TestFastRetransmitOnThreeDupAcks(t *testing.T) {
	s := NewSender(Params{})
	for i := int64(0); i < 5; i++ {
		s.OnSent(i, 0)
	}
	before := s.Cwnd()
	for i := 0; i < 3; i++ {
		s.OnAck(Ack{CumAck: 0, Dup: true}, 100)
	}
	if s.Stats().FastRtx != 1 {
		t.Fatalf("FastRtx = %d, want 1", s.Stats().FastRtx)
	}
	seq, rtx := s.NextSend()
	if !rtx || seq != 0 {
		t.Fatalf("NextSend = %d,%v, want retransmit of 0", seq, rtx)
	}
	if s.Cwnd() >= before {
		t.Fatal("no multiplicative decrease on fast retransmit")
	}
	// Sending the retransmission clears the pending flag.
	s.OnSent(seq, 200)
	if s.Stats().Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1", s.Stats().Retransmits)
	}
}

func TestNoSecondFastRtxInSameWindow(t *testing.T) {
	s := NewSender(Params{})
	for i := int64(0); i < 5; i++ {
		s.OnSent(i, 0)
	}
	for i := 0; i < 6; i++ {
		s.OnAck(Ack{CumAck: 0, Dup: true}, 100)
	}
	if s.Stats().FastRtx != 1 {
		t.Fatalf("FastRtx = %d, want 1 (once per window)", s.Stats().FastRtx)
	}
}

func TestTimeoutCollapsesWindow(t *testing.T) {
	s := NewSender(Params{RTOMin: sim.Millisecond})
	for i := int64(0); i < 5; i++ {
		s.OnSent(i, 0)
	}
	if s.MaybeTimeout(sim.Microsecond) {
		t.Fatal("timeout fired before RTO")
	}
	if !s.MaybeTimeout(2 * sim.Millisecond) {
		t.Fatal("timeout did not fire after RTO")
	}
	if s.Cwnd() != 2 {
		t.Fatalf("cwnd after timeout = %v, want the MinCwnd floor (2)", s.Cwnd())
	}
	// Go-back-N: next send is the oldest unacked.
	seq, _ := s.NextSend()
	if seq != 0 {
		t.Fatalf("next send after timeout = %d, want 0", seq)
	}
}

func TestNoTimeoutWhenIdle(t *testing.T) {
	s := NewSender(Params{RTOMin: sim.Millisecond})
	if s.MaybeTimeout(10 * sim.Millisecond) {
		t.Fatal("timeout fired with nothing outstanding")
	}
}

func TestDCTCPAlphaTracksMarks(t *testing.T) {
	s := NewSender(Params{})
	// Several windows of fully-marked ACKs push alpha toward 1.
	var seq int64
	for w := 0; w < 200; w++ {
		for i := 0; i < 10 && s.CanSend(); i++ {
			q, _ := s.NextSend()
			s.OnSent(q, sim.Time(w*1000+i))
			seq = q
		}
		s.OnAck(Ack{CumAck: seq + 1, ECNEcho: true}, sim.Time(w*1000+999))
	}
	if s.Alpha() < 0.5 {
		t.Fatalf("alpha = %v, want pushed toward 1 under persistent marking", s.Alpha())
	}
	// Cwnd must be cut relative to unmarked operation.
	u := NewSender(Params{})
	seq = 0
	for w := 0; w < 200; w++ {
		for i := 0; i < 10 && u.CanSend(); i++ {
			q, _ := u.NextSend()
			u.OnSent(q, sim.Time(w*1000+i))
			seq = q
		}
		u.OnAck(Ack{CumAck: seq + 1}, sim.Time(w*1000+999))
	}
	if s.Cwnd() >= u.Cwnd() {
		t.Fatalf("marked cwnd %v >= unmarked %v", s.Cwnd(), u.Cwnd())
	}
}

func TestReceiverInOrderDelivery(t *testing.T) {
	r := NewReceiver(Params{})
	var acks int
	for i := int64(0); i < 2*ackEvery; i++ {
		d, ack := r.OnData(i, false)
		if d != 1 {
			t.Fatalf("delivered = %d, want 1", d)
		}
		if ack != nil {
			acks++
			if ack.CumAck != i+1 || ack.Dup {
				t.Fatalf("ack = %+v", ack)
			}
		}
	}
	if acks != 2 {
		t.Fatalf("acks = %d, want 2 (one per %d segments)", acks, ackEvery)
	}
}

func TestReceiverOutOfOrderDupAck(t *testing.T) {
	r := NewReceiver(Params{})
	r.OnData(0, false)
	d, ack := r.OnData(2, false) // gap at 1
	if d != 0 {
		t.Fatal("out-of-order segment delivered")
	}
	if ack == nil || !ack.Dup || ack.CumAck != 1 {
		t.Fatalf("ack = %+v, want dup ack for 1", ack)
	}
	// Filling the gap delivers both and acks immediately.
	d, ack = r.OnData(1, false)
	if d != 2 {
		t.Fatalf("delivered = %d, want 2", d)
	}
	if ack == nil || ack.CumAck != 3 {
		t.Fatalf("ack = %+v, want cumack 3", ack)
	}
}

func TestReceiverDuplicateSegment(t *testing.T) {
	r := NewReceiver(Params{})
	r.OnData(0, false)
	d, ack := r.OnData(0, false)
	if d != 0 || ack == nil || !ack.Dup {
		t.Fatalf("duplicate handling: d=%d ack=%+v", d, ack)
	}
	if r.RcvNxt() != 1 {
		t.Fatalf("duplicate moved the receive point to %d", r.RcvNxt())
	}
}

func TestReceiverECNEcho(t *testing.T) {
	r := NewReceiver(Params{})
	r.OnData(0, true) // marked, no ack yet
	for seq := int64(1); seq < ackEvery-1; seq++ {
		r.OnData(seq, false)
	}
	_, ack := r.OnData(ackEvery-1, false)
	if ack == nil || !ack.ECNEcho {
		t.Fatalf("ack = %+v, want ECN echo", ack)
	}
	// Echo is cleared after being sent.
	for seq := int64(ackEvery); seq < 2*ackEvery-1; seq++ {
		r.OnData(seq, false)
	}
	_, ack = r.OnData(2*ackEvery-1, false)
	if ack == nil || ack.ECNEcho {
		t.Fatalf("ack = %+v, want echo cleared", ack)
	}
}

func TestReceiverFlushAck(t *testing.T) {
	r := NewReceiver(Params{})
	if r.FlushAck() != nil {
		t.Fatal("flush with nothing pending returned an ack")
	}
	r.OnData(0, false)
	ack := r.FlushAck()
	if ack == nil || ack.CumAck != 1 {
		t.Fatalf("flush ack = %+v", ack)
	}
	if r.FlushAck() != nil {
		t.Fatal("second flush returned an ack")
	}
}

// TestReceiverAckAllocs: the receiver builds its ACK in a field it owns,
// so in-order segments, the ACK the delayed-ACK threshold sends and a
// flushed ACK allocate nothing; the pointer OnData returned reads the
// ACK until the next call.
func TestReceiverAckAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	r := NewReceiver(Params{})
	seq := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		for end := seq + ackEvery - 1; seq < end; seq++ {
			r.OnData(seq, false)
		}
		if _, ack := r.OnData(seq, true); ack == nil || ack.CumAck != seq+1 || !ack.ECNEcho {
			t.Fatalf("ack = %+v, want cumack %d with echo", ack, seq+1)
		}
		r.OnData(seq+1, false)
		if ack := r.FlushAck(); ack == nil || ack.CumAck != seq+2 || ack.ECNEcho {
			t.Fatalf("flush ack = %+v, want cumack %d", ack, seq+2)
		}
		seq += 2
	}); n != 0 {
		t.Errorf("%v allocs per %d segments and two ACKs, want 0", n, ackEvery+1)
	}
}

// End-to-end property: over a lossy reordered channel, the receiver
// eventually delivers a prefix 0..n without gaps, and rcvNxt never
// decreases. Once the window closes each step, the receiver flushes its
// delayed ACK, as the host's delayed-ACK timer does when traffic pauses.
func TestPropertyReliableDelivery(t *testing.T) {
	f := func(dropPattern []bool) bool {
		s := NewSender(Params{RTOMin: sim.Millisecond, MaxCwnd: 64})
		r := NewReceiver(Params{})
		now := sim.Time(0)
		drop := func(i int64) bool {
			if len(dropPattern) == 0 {
				return false
			}
			return dropPattern[int(i)%len(dropPattern)] && i%7 == 3
		}
		var sent int64
		for step := 0; step < 20000 && r.RcvNxt() < 200; step++ {
			now += 1000
			s.MaybeTimeout(now)
			for s.CanSend() && sent < 100000 {
				seq, _ := s.NextSend()
				s.OnSent(seq, now)
				sent++
				if drop(seq + sent) {
					continue
				}
				prev := r.RcvNxt()
				_, ack := r.OnData(seq, false)
				if r.RcvNxt() < prev {
					return false
				}
				if ack != nil {
					s.OnAck(*ack, now)
				}
			}
			if ack := r.FlushAck(); ack != nil {
				s.OnAck(*ack, now)
			}
		}
		return r.RcvNxt() >= 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
