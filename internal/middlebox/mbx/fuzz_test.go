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
