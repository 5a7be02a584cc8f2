package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"pvn/internal/packet"
)

// Everything in this file turns a seed into inputs. The host under test
// is handed the generated PVNC texts and frames and never the seed.

// fillerAlphabet is what HTTP filler and payload bytes are drawn from.
// It has no digits, '@' or '=' because pii-detect's structural detectors
// drop a request whose headers hold a ten-digit run, an e-mail shape or
// a lat=/lon= pair; it has no 'q' because every secret starts with "zq",
// so filler can never contain a subscriber's secret by accident.
const fillerAlphabet = "abcdefghijklmnoprstuvwxyz"

// pvncTemplate is the quickstart/E11 PVNC plus one chain-free rule: six
// flow rules per subscriber once compiled (out+in for each policy).
const pvncTemplate = `pvnc bench-%d
owner %s
device %s
middlebox pii pii-detect mode=block secrets=%s
middlebox trk tracker-block domains=ads.example,tracker.net
chain secure pii trk
policy 100 match proto=tcp dport=80 via=secure action=forward
policy 90 match proto=tcp dport=443 action=forward
policy 0 match any action=forward
`

// rulesPerSubscriber is what pvncTemplate compiles to; the oracle for
// "table back to the resident baseline" is derived from it.
const rulesPerSubscriber = 6

// subscriber is one PVN user: what the host is given (id, PVNC text) and
// what the oracle knows (address, secret).
type subscriber struct {
	id     string
	owner  string
	addr   packet.IPv4Address
	secret string
	text   string
}

// makeSubscriber derives subscriber number index. Addresses are
// 10.16.0.0 upward, one per index, so no two subscribers share one.
func makeSubscriber(index int, r *rng) subscriber {
	s := subscriber{
		id:     fmt.Sprintf("dev-%d", index),
		owner:  fmt.Sprintf("user%d", index),
		addr:   packet.IPv4Address{10, byte(16 + index>>16), byte(index >> 8), byte(index)},
		secret: "zq" + r.letters(10, fillerAlphabet),
	}
	s.text = fmt.Sprintf(pvncTemplate, index, s.owner, s.addr, s.secret)
	return s
}

// makeSubscribers derives n subscribers numbered from first.
func makeSubscribers(first, n int, r *rng) []subscriber {
	subs := make([]subscriber, n)
	for i := range subs {
		subs[i] = makeSubscriber(first+i, r)
	}
	return subs
}

// inputHash accumulates every generated input in generation order; two
// runs with one seed must end with the same digest. A run generates
// inputs for as many rounds as the machine fits into its time, so the
// digest is sealed after the first measured round and covers the world,
// the warm-up and that round.
type inputHash struct {
	h      hash.Hash
	sealed bool
}

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) seal() { ih.sealed = true }

func (ih *inputHash) add(b []byte) {
	if ih.sealed {
		return
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	ih.h.Write(n[:])
	ih.h.Write(b)
}

func (ih *inputHash) addString(s string) { ih.add([]byte(s)) }

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }

// serverAddr is a seeded destination outside every subscriber range.
func serverAddr(r *rng) packet.IPv4Address {
	return packet.IPv4Address{93, 184, byte(r.intn(256)), byte(1 + r.intn(254))}
}

// tcpFrame serializes an IPv4+TCP segment of exactly size bytes (at
// least 40) with correct checksums; any payload is filler letters.
func tcpFrame(src, dst packet.IPv4Address, sport, dport uint16, size int, r *rng) []byte {
	ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: sport, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	var payload packet.Payload
	if size > 40 {
		payload = packet.Payload(r.letters(size-40, fillerAlphabet))
	}
	out, err := packet.SerializeToBytes(ip, tcp, payload)
	if err != nil {
		panic("bench: serialize tcp frame: " + err.Error())
	}
	return out
}

// cleanHosts are request hosts no tracker-block list names.
var cleanHosts = []string{"news.example", "cdn.example", "api.example", "video.example"}

// httpFrame serializes a plaintext HTTP GET from a subscriber to port
// 80, padded with filler to size bytes (at least the bare request). A
// leak frame carries the subscriber's secret in its path, which the
// subscriber's own pii-detect must drop; a clean frame must come out.
func httpFrame(sub *subscriber, dst packet.IPv4Address, sport uint16, size int, leak bool, r *rng) []byte {
	path := "/" + r.letters(8, fillerAlphabet)
	if leak {
		path += "?token=" + sub.secret
	}
	build := func(filler int) []byte {
		h := &packet.HTTP{IsRequest: true, Method: "GET", Path: path}
		h.SetHeader("Host", cleanHosts[int(sport)%len(cleanHosts)])
		h.SetHeader("User-Agent", "pvn-bench")
		h.SetHeader("Accept", "text/html")
		if filler > 0 {
			h.SetHeader("Cookie", "session "+r.letters(filler, fillerAlphabet))
		}
		msg, err := packet.SerializeToBytes(h)
		if err != nil {
			panic("bench: serialize http: " + err.Error())
		}
		ip := &packet.IPv4{Src: sub.addr, Dst: dst, Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: sport, DstPort: 80}
		tcp.SetNetworkLayerForChecksum(ip)
		out, err := packet.SerializeToBytes(ip, tcp, packet.Payload(msg))
		if err != nil {
			panic("bench: serialize http frame: " + err.Error())
		}
		return out
	}
	bare := build(0)
	// A Cookie header costs its name, separator and CRLF before the
	// first filler byte.
	const cookieOverhead = len("Cookie: session \r\n")
	if size <= len(bare)+cookieOverhead {
		return bare
	}
	return build(size - len(bare) - cookieOverhead)
}

// framePool is a fixed set of frames sent in a fixed seeded order, with
// the verdict the workload definition expects for each. One pass over
// order is one round, so every round has the same oracle.
type framePool struct {
	frames [][]byte
	leak   []bool
	// owner is the index of the subscriber each frame belongs to.
	owner []int
	order []int
	// wantOut/wantDrop are the oracle for one pass over order.
	wantOut, wantDrop int64
	// clean indexes the frames expected to come out, in order; the
	// window-1 phase sends only these, because a dropped frame never
	// reaches OnOutput.
	clean []int
}

func (p *framePool) finish(r *rng, ih *inputHash) {
	p.order = r.perm(len(p.frames))
	for _, i := range p.order {
		ih.add(p.frames[i])
		if p.leak[i] {
			p.wantDrop++
		} else {
			p.wantOut++
			p.clean = append(p.clean, i)
		}
	}
}

// cachedPool is the fwd_cached input: one 40-byte TCP segment to port
// 443 per flow, flows spread round-robin over the residents.
func cachedPool(subs []subscriber, flows int, r *rng, ih *inputHash) *framePool {
	p := &framePool{}
	for f := 0; f < flows; f++ {
		sub := &subs[f%len(subs)]
		sport := uint16(20000 + f/len(subs))
		p.frames = append(p.frames, tcpFrame(sub.addr, serverAddr(r), sport, 443, 40, r))
		p.leak = append(p.leak, false)
		p.owner = append(p.owner, f%len(subs))
	}
	p.finish(r, ih)
	return p
}

// httpPool is the chain_http input: perFlow HTTP GETs per flow with
// seeded lengths in [200, 1400]; leakPerMille of every thousand frames
// carry the owner's secret.
func httpPool(subs []subscriber, flows, perFlow, leakPerMille int, r *rng, ih *inputHash) *framePool {
	p := &framePool{}
	for f := 0; f < flows; f++ {
		sub := &subs[f%len(subs)]
		sport := uint16(20000 + f/len(subs))
		dst := serverAddr(r)
		for k := 0; k < perFlow; k++ {
			leak := r.intn(1000) < leakPerMille
			p.frames = append(p.frames, httpFrame(sub, dst, sport, 200+r.intn(1201), leak, r))
			p.leak = append(p.leak, leak)
			p.owner = append(p.owner, f%len(subs))
		}
	}
	p.finish(r, ih)
	return p
}

// churnGen is the flow_churn input: an endless sequence of flows that
// each live pktsPerFlow packets and never return. Flow number n goes to
// a seeded subscriber, with source port and destination derived from n
// so no 5-tuple ever repeats.
type churnGen struct {
	subs []subscriber
	r    *rng
	next int
	// arena backs one round's frames so generating the next round
	// reuses the memory of the last.
	arena []byte
}

const (
	churnPktsPerFlow = 4
	churnFrameSize   = 64
	// churnGroup is how many flows are live at once: a group's first
	// packets all go out (all misses), then its second packets, and so
	// on, so one packet in pktsPerFlow misses the cache.
	churnGroup = 1024
)

// frame serializes the (only) frame of flow n: every packet of a flow
// is the same 64 bytes.
func (g *churnGen) frame(n int, into []byte) []byte {
	sub := &g.subs[g.r.intn(len(g.subs))]
	sport := uint16(1024 + n%60000)
	hi := n / 60000
	dst := packet.IPv4Address{198, 18, byte(hi >> 8), byte(hi)}
	return append(into[:0], tcpFrame(sub.addr, dst, sport, 443, churnFrameSize, g.r)...)
}

// round generates flows fresh flows and returns the frame sequence of
// the round: group by group, each group's frames pktsPerFlow times.
func (g *churnGen) round(flows int, ih *inputHash) [][]byte {
	if cap(g.arena) < flows*churnFrameSize {
		g.arena = make([]byte, flows*churnFrameSize)
	}
	uniq := make([][]byte, flows)
	for i := range uniq {
		uniq[i] = g.frame(g.next, g.arena[i*churnFrameSize:(i+1)*churnFrameSize:(i+1)*churnFrameSize])
		g.next++
		if ih != nil {
			ih.add(uniq[i])
		}
	}
	seq := make([][]byte, 0, flows*churnPktsPerFlow)
	for lo := 0; lo < flows; lo += churnGroup {
		hi := lo + churnGroup
		if hi > flows {
			hi = flows
		}
		for k := 0; k < churnPktsPerFlow; k++ {
			seq = append(seq, uniq[lo:hi]...)
		}
	}
	return seq
}
