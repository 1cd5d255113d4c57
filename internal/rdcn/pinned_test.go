package rdcn

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

func TestPortClassifier(t *testing.T) {
	seg := &packet.Segment{Src: 1, Dst: 2, Proto: packet.ProtoTCP,
		TCP: packet.TCPHeader{SrcPort: 40001, DstPort: 5001, Flags: packet.FlagACK}}
	wire := seg.Serialize(nil)
	if got := PortClassifier(wire, 2); got != 1 {
		t.Fatalf("classifier = %d, want 1 (dst port 5001)", got)
	}
	seg.TCP.DstPort = 5000
	wire = seg.Serialize(nil)
	if got := PortClassifier(wire, 2); got != 0 {
		t.Fatalf("classifier = %d, want 0", got)
	}
	if got := PortClassifier(nil, 2); got != 0 {
		t.Fatal("short frame should classify to 0")
	}
	if got := PortClassifier(wire, 0); got != 0 {
		t.Fatal("zero TDNs should classify to 0")
	}
}

func TestPinnedVOQsHoldUntilTheirTDN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostsPerRack = 1
	cfg.HostDelay = 0
	cfg.PinnedVOQs = true
	// Schedule: TDN0 for 100us, night, TDN1 for 100us, night.
	cfg.Schedule = MustSchedule([]Slot{
		{TDN: 0, Dur: us(100)}, {TDN: NightTDN, Dur: us(10)},
		{TDN: 1, Dur: us(100)}, {TDN: NightTDN, Dur: us(10)},
	})
	n, err := New(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Racks[0].VOQs()) != 2 {
		t.Fatalf("pinned rack has %d VOQs, want 2", len(n.Racks[0].VOQs()))
	}
	dst := n.Racks[1].Hosts[0]
	type arrival struct {
		port uint16
		at   sim.Time
	}
	var got []arrival
	dst.Recv = func(f netem.Frame) {
		var s packet.Segment
		if err := packet.Parse(f.Wire, &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, arrival{s.TCP.DstPort, dst.Rack.Loop().Now()})
	}
	n.Start(sim.Time(us(500)))
	// During TDN0, send one frame per pinned class.
	n.Loop.At(sim.Time(us(10)), func() {
		for _, port := range []uint16{5000, 5001} {
			n.Racks[0].Hosts[0].Send(&packet.Segment{
				Dst: dst.Addr, TTL: 64, Proto: packet.ProtoTCP,
				TCP: packet.TCPHeader{DstPort: port, Flags: packet.FlagACK, PayloadLen: 100},
			})
		}
	})
	n.Engine.RunUntil(sim.Time(us(400)))
	if len(got) != 2 {
		t.Fatalf("arrivals = %d", len(got))
	}
	// Port 5000 (TDN0) crosses immediately; port 5001 (TDN1) waits for the
	// TDN1 day starting at 110us.
	if got[0].port != 5000 || got[0].at > sim.Time(us(80)) {
		t.Fatalf("TDN0 frame: %+v", got[0])
	}
	if got[1].port != 5001 || got[1].at < sim.Time(us(110)) {
		t.Fatalf("TDN1 frame crossed before its day: %+v", got[1])
	}
	if _, _, drops, _ := n.Racks[0].VOQs()[1].Stats(); drops != 0 {
		t.Fatalf("pinned VOQ dropped %d", drops)
	}
	if n.Racks[0].QueueLen() != 0 {
		t.Fatalf("queues not drained: %d", n.Racks[0].QueueLen())
	}
}

func TestNotifyJitterDeterministic(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig()
		cfg.HostsPerRack = 4
		cfg.Notify = NotifyProfile{Gen: us(1), Net: us(1), Jitter: us(5)}
		n, _ := New(cfg, 99, 1)
		var times []float64
		for _, h := range n.Racks[0].Hosts {
			h.NotifyTDN = func(int, uint32) { times = append(times, h.Rack.Loop().Now().Microseconds()) }
		}
		n.Start(sim.Time(us(300)))
		n.Engine.RunUntil(sim.Time(us(300)))
		return times
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jittered notifications not deterministic at %d", i)
		}
	}
}
