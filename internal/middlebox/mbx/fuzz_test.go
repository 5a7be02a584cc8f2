package mbx

import (
	"testing"

	"pvn/internal/packet"
)

// FuzzCompileScript: the sandboxed filter-language compiler on arbitrary
// programs — must never panic, and accepted programs must execute.
func FuzzCompileScript(f *testing.F) {
	f.Add(`when dport == 443 then pass`)
	f.Add(`when host contains "ads" and not proto == udp then drop`)
	f.Add(`when ( path startswith "/t" or payload contains "x" ) then alert "m"`)
	f.Add(``)
	f.Add(`when when then then`)

	f.Fuzz(func(t *testing.T, src string) {
		box, err := CompileScript(src)
		if err != nil {
			return
		}
		// Accepted programs evaluate without panicking.
		pkt := []byte{0x45, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
		fields := extractScriptFields(packet.Decode(pkt, packet.LayerTypeIPv4))
		for _, r := range box.rules {
			_ = r.expr.eval(fields)
		}
	})
}

// FuzzTLSVerify: random segment sequences over four connections, FIN
// and RST included. tls-verify must never panic or track more than
// maxTLSFlows connections; a blocked connection drops every later
// payload segment, FIN or RST notwithstanding, and holds no stream;
// and once every open connection is reset at its sequence edge, only
// blocked connections' entries are left.
//
// Each segment is 4 header bytes — connection and direction, flags,
// sequence number/8, payload length — then its payload.
func FuzzTLSVerify(f *testing.F) {
	var seed []byte
	for _, b := range [][]byte{{0x00, 0, 0, 0}, {0x04, 0, 0, 5}} {
		seed = append(seed, b...)
	}
	seed = append(seed, 23, 3, 3, 0, 0)
	f.Add(seed)
	f.Add([]byte{0x01, 1, 0, 5, 22, 3, 3, 0, 9, 0x01, 0, 1, 0})
	f.Add([]byte{0x06, 4, 2, 0, 0x02, 0, 0, 3, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, in []byte) {
		fx := newTLSFixture(t)
		var blocked [4]bool
		for len(in) >= 4 {
			conn, toServer := int(in[0]&3), in[0]&4 != 0
			flags := []byte{0, packet.TCPFin | packet.TCPAck, packet.TCPRst, packet.TCPAck}[in[1]&3]
			seq, n := uint32(in[2])*8, int(in[3]&63)
			in = in[4:]
			n = min(n, len(in))
			payload := in[:n]
			in = in[n:]

			out, err := runChain(t, fx.rt, flowSeg(t, uint16(30000+conn), toServer, flags, seq, payload))
			if err != nil {
				t.Fatal(err)
			}
			if blocked[conn] && n > 0 && out != nil {
				t.Fatalf("connection %d is blocked, but a later segment passed", conn)
			}
			blocked[conn] = blocked[conn] || n > 0 && out == nil
			if _, ok := fx.box.asm.Next(connFlow(t, uint16(30000+conn), toServer)); blocked[conn] && ok {
				t.Fatalf("blocked connection %d still holds a stream", conn)
			}
			if len(fx.box.flows) > maxTLSFlows {
				t.Fatalf("%d connections tracked, cap %d", len(fx.box.flows), maxTLSFlows)
			}
		}
		for conn := 0; conn < 4; conn++ {
			for _, toServer := range []bool{true, false} {
				sport := uint16(30000 + conn)
				if _, ok := fx.box.asm.Next(connFlow(t, sport, toServer)); ok {
					runChain(t, fx.rt, edgeSeg(t, fx.box, sport, toServer, packet.TCPRst))
				}
			}
		}
		if fx.box.asm.Flows() != 0 {
			t.Fatalf("every connection closed, but %d streams remain", fx.box.asm.Flows())
		}
		for flow, st := range fx.box.flows {
			if !st.blocked {
				t.Fatalf("open connection %v outlived its RST", flow)
			}
		}
	})
}
