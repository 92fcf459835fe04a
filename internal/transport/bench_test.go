package transport

import "testing"

func BenchmarkSenderReceiverLoop(b *testing.B) {
	s := NewSender(Params{MaxCwnd: 64})
	r := NewReceiver(Params{})
	for i := 0; i < b.N; i++ {
		// One window's worth of segment+ACK processing per iteration
		// (instant ACKs keep the window open, so bound the inner loop).
		for j := 0; j < 64 && s.CanSend(); j++ {
			seq, _ := s.NextSend()
			s.OnSent(seq, 0)
			if _, ack := r.OnData(seq, false); ack != nil {
				s.OnAck(*ack, 0)
			}
		}
		if ack := r.FlushAck(); ack != nil {
			s.OnAck(*ack, 0)
		}
	}
}

func BenchmarkReceiverOutOfOrder(b *testing.B) {
	r := NewReceiver(Params{})
	var seq int64
	for i := 0; i < b.N; i++ {
		// Deliver 2 then 1 of every 3-segment group: one gap per group.
		r.OnData(seq, false)
		r.OnData(seq+2, false)
		r.OnData(seq+1, false)
		seq += 3
	}
}
