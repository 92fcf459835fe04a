package nic

import (
	"strings"
	"testing"

	"fastsafe/internal/core"
)

// TestDMACompletionOrderIsChecked forges completions the links did not
// make: one with no DMA in flight, and one for a submitted DMA the link
// has not completed. The NIC pairs completions with its in-flight
// records by order, so either is a bug, and each panics naming the NIC.
func TestDMACompletionOrderIsChecked(t *testing.T) {
	expectPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			s, _ := r.(string)
			if !strings.HasPrefix(s, "nic: ") || !strings.Contains(s, want) {
				t.Fatalf("%s: panic %v, want a nic panic containing %q", name, r, want)
			}
		}()
		f()
	}
	h := newHarness(t, core.Strict, Config{})
	expectPanic("Rx, nothing in flight", "none in flight", h.nic.rxDone)
	expectPanic("Tx, nothing in flight", "none in flight", h.nic.txDone)

	h = newHarness(t, core.Strict, Config{})
	h.nic.Arrive(Packet{CPU: 0, Bytes: 4096})
	expectPanic("Rx, link not done", "out of order", h.nic.rxDone)

	h = newHarness(t, core.Strict, Config{})
	m, _, err := h.dom.MapTx(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.nic.SendTx(Packet{CPU: 0, Bytes: 4096}, m)
	expectPanic("Tx, link not done", "out of order", h.nic.txDone)
}

// TestInflightRecordsPairWithCompletions runs interleaved Rx, one-sided
// and Tx DMAs to completion: every packet is delivered or sent once, in
// submission order per direction, and no record is left in flight.
func TestInflightRecordsPairWithCompletions(t *testing.T) {
	h := newHarness(t, core.Strict, Config{Cores: 2})
	win, _, err := h.dom.MapRxDescriptor(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		switch i % 3 {
		case 0:
			h.nic.Arrive(Packet{CPU: i % 2, Bytes: 4096, Seq: int64(i)})
		case 1:
			h.nic.DirectRx(Packet{Bytes: 1024, Seq: int64(i)}, win.IOVAs, (i%8)*4352)
		}
		m, _, err := h.dom.MapTx(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.nic.SendTx(Packet{Bytes: 2048, Seq: int64(i)}, m)
		h.eng.Run(h.eng.Now() + 300)
	}
	h.eng.RunAll()
	if len(h.delivered) != 27 || len(h.txDone) != 40 {
		t.Fatalf("delivered %d, sent %d; want 27, 40", len(h.delivered), len(h.txDone))
	}
	for i, p := range h.txDone {
		if p.Seq != int64(i) {
			t.Fatalf("Tx completion %d carries packet %d", i, p.Seq)
		}
	}
	if h.nic.rxInflight.Len() != 0 || h.nic.txInflight.Len() != 0 {
		t.Fatalf("records left in flight: Rx %d, Tx %d", h.nic.rxInflight.Len(), h.nic.txInflight.Len())
	}
}
