package host

import (
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
)

func TestMsgSegmentation(t *testing.T) {
	if n := segCount(1, 4096); n != 1 {
		t.Fatalf("segCount(1) = %d", n)
	}
	if n := segCount(4096, 4096); n != 1 {
		t.Fatalf("segCount(4096) = %d", n)
	}
	if n := segCount(4097, 4096); n != 2 {
		t.Fatalf("segCount(4097) = %d", n)
	}
	if b := segBytes(4097, 4096, 1); b != 64 {
		t.Fatalf("tail segment = %d, want 64B minimum frame", b)
	}
	if b := segBytes(10000, 4096, 1); b != 4096 {
		t.Fatalf("middle segment = %d", b)
	}
}

func TestMsgAssembleDedupes(t *testing.T) {
	a := &msgApp{}
	seen := map[int64]map[int]bool{}
	seg := msgSeg{msg: 1, idx: 0, count: 2}
	if a.assemble(seen, seg) {
		t.Fatal("incomplete message reported complete")
	}
	// Duplicate of the same segment must not complete the message.
	if a.assemble(seen, seg) {
		t.Fatal("duplicate segment completed message")
	}
	seg.idx = 1
	if !a.assemble(seen, seg) {
		t.Fatal("complete message not detected")
	}
	// Assembly state pruned: a late duplicate restarts from scratch.
	if a.assemble(seen, msgSeg{msg: 1, idx: 1, count: 2}) {
		t.Fatal("stale duplicate completed pruned message")
	}
}

func TestMsgExchangeCountsAndLatency(t *testing.T) {
	h, err := New(Config{Mode: core.FNS, Cores: 2, RxFlows: -1})
	if err != nil {
		t.Fatal(err)
	}
	app := h.InstallMessages(MsgConfig{Pattern: LocalServes, Streams: 2, Depth: 2,
		ReqBytes: 8 << 10, RespBytes: 128, AppCPU: 500})
	r := h.Run(2*sim.Millisecond, 10*sim.Millisecond)
	if r.Completed == 0 || app.Completed() == 0 {
		t.Fatal("no exchanges completed")
	}
	if r.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if r.MsgGbps <= 0 {
		t.Fatal("no message throughput")
	}
}

func TestMsgDepthBoundsOutstanding(t *testing.T) {
	h, err := New(Config{Mode: core.Off, Cores: 1, RxFlows: -1})
	if err != nil {
		t.Fatal(err)
	}
	h.InstallMessages(MsgConfig{Pattern: LocalClient, Streams: 1, Depth: 3,
		ReqBytes: 64, RespBytes: 4096, AppCPU: 100})
	h.Start()
	h.Engine().Run(5 * sim.Millisecond)
	// Depth 3 slots per stream: never more outstanding than that.
	s := h.msgs.streams[0]
	if len(s.slots) > 3 {
		t.Fatalf("outstanding slots = %d, want <= 3", len(s.slots))
	}
}

func TestMsgLocalClientRoundtrip(t *testing.T) {
	h, err := New(Config{Mode: core.Strict, Cores: 1, RxFlows: -1})
	if err != nil {
		t.Fatal(err)
	}
	h.InstallMessages(MsgConfig{Pattern: LocalClient, Streams: 1, Depth: 1,
		ReqBytes: 200, RespBytes: 64 << 10, AppCPU: 1000})
	r := h.Run(2*sim.Millisecond, 10*sim.Millisecond)
	if r.Completed == 0 {
		t.Fatal("no exchanges completed")
	}
	// The bulk direction (responses) flows through the local Rx path:
	// translations must have happened.
	if r.IOTLBPerPage < 0.5 {
		t.Fatalf("IOTLB/page = %.2f, want translation activity", r.IOTLBPerPage)
	}
}

// TestMsgLatencyMeasuresWindowOnly: both Host.Run and Cluster.Run reset
// the message app's latency histogram when the measured window opens,
// so it holds exactly one sample per in-window completion.
func TestMsgLatencyMeasuresWindowOnly(t *testing.T) {
	msgs := MsgConfig{Pattern: LocalServes, Streams: 2, Depth: 2, ReqBytes: 4096, RespBytes: 4096,
		AppCPU: 2 * sim.Microsecond}
	check := func(t *testing.T, r Results) {
		t.Helper()
		if r.Completed == 0 {
			t.Fatal("no exchanges completed in the window")
		}
		if n := r.Latency.Count(); n != r.Completed {
			t.Fatalf("latency histogram holds %d samples for %d in-window completions", n, r.Completed)
		}
	}
	t.Run("host", func(t *testing.T) {
		h, err := New(Config{Mode: core.FNS})
		if err != nil {
			t.Fatal(err)
		}
		h.InstallMessages(msgs)
		check(t, h.Run(sim.Millisecond, 2*sim.Millisecond))
	})
	t.Run("cluster", func(t *testing.T) {
		c, err := NewCluster(ClusterConfig{Hosts: 2, Host: Config{Mode: core.FNS}})
		if err != nil {
			t.Fatal(err)
		}
		c.Hosts()[0].InstallMessages(msgs)
		check(t, c.Run(sim.Millisecond, 2*sim.Millisecond).Hosts[0])
	})
}
