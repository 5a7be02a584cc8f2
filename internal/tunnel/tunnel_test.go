package tunnel

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"pvn/internal/packet"
)

var (
	devAddr   = packet.MustParseIPv4("10.0.0.5")
	cloudAddr = packet.MustParseIPv4("198.51.100.50")
	homeAddr  = packet.MustParseIPv4("203.0.113.80")
)

func innerPacket(t *testing.T) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: devAddr, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("inner-payload"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEncapDecapRoundTrip(t *testing.T) {
	inner := innerPacket(t)
	outer, err := Encap(inner, devAddr, cloudAddr, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(outer) != len(inner)+Overhead {
		t.Fatalf("overhead %d, want %d", len(outer)-len(inner), Overhead)
	}
	// The outer packet is a valid IPv4/UDP datagram.
	p := packet.Decode(outer, packet.LayerTypeIPv4)
	if p.IPv4().Dst != cloudAddr || p.UDP() == nil || p.UDP().DstPort != Port {
		t.Fatalf("outer stack %s", p)
	}

	got, id, err := Decap(outer)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 {
		t.Fatalf("tunnel id %d", id)
	}
	if !bytes.Equal(got, inner) {
		t.Fatal("inner packet corrupted")
	}
	// The inner packet still parses with valid checksums.
	ip := packet.Decode(got, packet.LayerTypeIPv4)
	if !ip.TCP().VerifyChecksum(ip.IPv4().LayerPayload()) {
		t.Fatal("inner checksum broken")
	}
}

func TestDecapRejectsNonTunnel(t *testing.T) {
	if _, _, err := Decap(innerPacket(t)); !errors.Is(err, ErrNotTunnel) {
		t.Fatalf("err=%v", err)
	}
	// Right port, wrong magic.
	ip := &packet.IPv4{Src: devAddr, Dst: cloudAddr, Protocol: packet.IPProtoUDP}
	udp := &packet.UDP{SrcPort: Port, DstPort: Port}
	udp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, udp, packet.Payload("XXXXXXXXXXXX"))
	if _, _, err := Decap(data); !errors.Is(err, ErrNotTunnel) {
		t.Fatalf("bad magic err=%v", err)
	}
	// Truncated header.
	data2, _ := packet.SerializeToBytes(ip, udp, packet.Payload("PN"))
	if _, _, err := Decap(data2); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated err=%v", err)
	}
}

// TestDecapAllocs: Decap reads the outer headers without allocating,
// whether it accepts a frame or refuses it past the IPv4 header (a
// header the IPv4 layer refuses costs the error it builds), and each
// refusal keeps its error.
func TestDecapAllocs(t *testing.T) {
	frame, err := Encap(innerPacket(t), devAddr, cloudAddr, 7)
	if err != nil {
		t.Fatal(err)
	}
	badSum := bytes.Clone(frame)
	badSum[8]-- // TTL, under the header checksum
	wrongPort := bytes.Clone(frame)
	wrongPort[23]++ // UDP destination port
	badMagic := bytes.Clone(frame)
	badMagic[28] = 'X'
	for _, c := range []struct {
		name   string
		frame  []byte
		err    error
		ipv4OK bool
	}{
		{"frame", frame, nil, true}, {"not UDP", innerPacket(t), ErrNotTunnel, true},
		{"wrong port", wrongPort, ErrNotTunnel, true}, {"bad magic", badMagic, ErrNotTunnel, true},
		{"truncated", frame[:Overhead-1], ErrTruncated, true},
		{"bad checksum", badSum, ErrNotTunnel, false}, {"empty", nil, ErrNotTunnel, false},
	} {
		var err error
		if n := testing.AllocsPerRun(100, func() { _, _, err = Decap(c.frame) }); n != 0 && c.ipv4OK {
			t.Errorf("%s: Decap allocates %.1f, want 0", c.name, n)
		}
		if err != c.err {
			t.Errorf("%s: err %v, want %v", c.name, err, c.err)
		}
	}
}

func TestTableWrapAndStats(t *testing.T) {
	tbl := NewTable(devAddr)
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, ExtraRTT: 20 * time.Millisecond, Trusted: true})
	inner := innerPacket(t)
	outer, e, err := tbl.Wrap("cloud", inner)
	if err != nil || e.Name != "cloud" {
		t.Fatal(err)
	}
	got, _, err := Decap(outer)
	if err != nil || !bytes.Equal(got, inner) {
		t.Fatal("wrap round trip failed")
	}
	if tbl.Sent("cloud") != 1 || tbl.Bytes("cloud") != int64(len(outer)) {
		t.Fatalf("stats %d/%d", tbl.Sent("cloud"), tbl.Bytes("cloud"))
	}
	st := tbl.Stats()
	if len(st.Endpoints) != 1 || st.Endpoints[0].Name != "cloud" || st.Endpoints[0].Sent != 1 {
		t.Fatalf("snapshot %+v", st)
	}
	if _, _, err := tbl.Wrap("ghost", inner); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	tbl := NewTable(devAddr)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		tbl.Add(&Endpoint{Name: n, Addr: cloudAddr})
	}
	got := tbl.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("names %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names %v, want %v", got, want)
		}
	}
}

// TestTableConcurrency hammers the table from parallel goroutines under
// -race: packet workers (Wrap, Route), control plane (Add), probers
// (RecordProbe) and metrics pollers (Stats) all at once.
func TestTableConcurrency(t *testing.T) {
	tbl := NewTable(devAddr)
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, Trusted: true})
	tbl.Add(&Endpoint{Name: "home", Addr: homeAddr, Trusted: true})
	inner := innerPacket(t)
	flow, ok := packet.FlowOf(packet.Decode(inner, packet.LayerTypeIPv4))
	if !ok {
		t.Fatal("no flow in inner packet")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, _, err := tbl.Wrap("cloud", inner); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tbl.Add(&Endpoint{Name: "home", Addr: homeAddr, Trusted: true})
				tbl.RecordProbe("home", i%7 != 0, time.Millisecond, time.Duration(i))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if name, _ := tbl.Route("cloud", flow); name == "" {
					t.Error("route returned no endpoint")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				st := tbl.Stats()
				if len(st.Endpoints) < 2 {
					t.Errorf("snapshot lost endpoints: %+v", st)
					return
				}
				tbl.Names()
				tbl.Sent("cloud")
				tbl.Bytes("cloud")
			}
		}()
	}
	wg.Wait()
	if got := tbl.Sent("cloud"); got != 4*500 {
		t.Fatalf("sent %d, want %d", got, 4*500)
	}
}

func TestTunnelIDsDistinguishEndpoints(t *testing.T) {
	tbl := NewTable(devAddr)
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr})
	tbl.Add(&Endpoint{Name: "home", Addr: homeAddr})
	inner := innerPacket(t)
	o1, _, _ := tbl.Wrap("cloud", inner)
	o2, _, _ := tbl.Wrap("home", inner)
	_, id1, _ := Decap(o1)
	_, id2, _ := Decap(o2)
	if id1 == id2 {
		t.Fatal("endpoints share tunnel ID")
	}
}

func TestBestTrusted(t *testing.T) {
	tbl := NewTable(devAddr)
	tbl.Add(&Endpoint{Name: "home", Addr: homeAddr, ExtraRTT: 150 * time.Millisecond, Trusted: true})
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, ExtraRTT: 20 * time.Millisecond, Trusted: true})
	tbl.Add(&Endpoint{Name: "sketchy", Addr: cloudAddr, ExtraRTT: time.Millisecond, Trusted: false})
	best, ok := tbl.BestTrusted()
	if !ok || best.Name != "cloud" {
		t.Fatalf("best %+v", best)
	}

	empty := NewTable(devAddr)
	if _, ok := empty.BestTrusted(); ok {
		t.Fatal("trusted endpoint found in empty table")
	}
}

func TestNestedTunnel(t *testing.T) {
	// Tunnel-in-tunnel must round-trip (e.g. PVN over VPN).
	inner := innerPacket(t)
	mid, err := Encap(inner, devAddr, cloudAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := Encap(mid, devAddr, homeAddr, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, id2, err := Decap(outer)
	if err != nil || id2 != 2 {
		t.Fatal(err)
	}
	i, id1, err := Decap(m)
	if err != nil || id1 != 1 {
		t.Fatal(err)
	}
	if !bytes.Equal(i, inner) {
		t.Fatal("nested round trip corrupted")
	}
}
