package overlay

import (
	"bytes"
	"crypto/ed25519"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
)

// Wire messages. The overlay speaks one envelope type over netsim
// links; DecodeEnvelope is the boundary every untrusted byte crosses,
// so it validates shape and bounds before anything else looks at the
// message (and is fuzzed in fuzz_test.go). The codec writes exactly
// json.Marshal's bytes and reads only that canonical form, in one pass,
// so DecodeEnvelope(b).Encode() equals b (DESIGN.md §12).

// Message kinds.
const (
	KindPing      = "ping"
	KindPong      = "pong"
	KindFindNode  = "find-node"
	KindNodes     = "nodes"
	KindFindValue = "find-value"
	KindValue     = "value"
	KindStore     = "store"
	KindStored    = "stored"
)

// knownKinds is the closed set DecodeEnvelope accepts.
var knownKinds = map[string]bool{
	KindPing: true, KindPong: true,
	KindFindNode: true, KindNodes: true,
	KindFindValue: true, KindValue: true,
	KindStore: true, KindStored: true,
}

// Wire bounds: a decoded envelope never carries more than these, no
// matter what a hostile peer sends.
const (
	maxEnvelopeBytes = 256 << 10
	maxPeers         = 64
	maxRecords       = 64
	maxGossipClaims  = 128
	maxBodyBytes     = 64 << 10
	maxNameBytes     = 256
)

// PeerInfo is a routing-table entry on the wire: identity, transport
// address (the netsim node ID) and the public key the identity hashes
// from.
type PeerInfo struct {
	ID   ID     `json:"id"`
	Addr string `json:"addr"`
	Key  []byte `json:"key,omitempty"`
}

// valid reports whether the entry is structurally sound: a non-empty
// bounded address and, when a key travels along, one of the right size
// that actually hashes to the claimed ID.
func (pi PeerInfo) valid() bool {
	if pi.Addr == "" || len(pi.Addr) > maxNameBytes || pi.ID.IsZero() {
		return false
	}
	if len(pi.Key) == 0 {
		return true
	}
	if len(pi.Key) != ed25519.PublicKeySize {
		return false
	}
	return IDFromPublicKey(pi.Key) == pi.ID
}

// inbound is an envelope DecodeEnvelope accepted, and the only way a
// wire PeerInfo becomes a Peer: validate ran valid() on the sender and
// on every peer entry, so each key binding is hashed once, at decode,
// and the entries convert here without a second check. Only
// Node.deliver makes one.
type inbound struct{ *Envelope }

// sender is the envelope's sender as a contact. Refreshing a routing
// table entry from it is unauthenticated by design: contact freshness
// is Kademlia liveness, not identity. The identity is checked, since
// DecodeEnvelope rejects a From whose key does not hash to its ID
// (TestDecodeEnvelopeRejects "spoofed sender key").
func (in inbound) sender() Peer {
	return Peer{ID: in.From.ID, Addr: in.From.Addr, Key: in.From.Key}
}

// peer is peer entry i as a contact.
func (in inbound) peer(i int) Peer {
	pi := in.Peers[i]
	return Peer{ID: pi.ID, Addr: pi.Addr, Key: pi.Key}
}

// Envelope is the single overlay message shape. Kind selects which
// fields are meaningful; Gossip rides on every message (anti-entropy
// piggybacking, see gossip.go).
type Envelope struct {
	Kind string `json:"kind"`
	// RPC correlates a response with its request.
	RPC  uint64   `json:"rpc"`
	From PeerInfo `json:"from"`
	// Target is the looked-up ID for find-node/find-value.
	Target ID `json:"target"`
	// Record is the payload of a store request.
	Record *Record `json:"record,omitempty"`
	// Records answer a find-value: every record the responder holds
	// under Target.
	Records []*Record `json:"records,omitempty"`
	// Peers answer find-node/find-value: the responder's closest
	// contacts to Target.
	Peers []PeerInfo `json:"peers,omitempty"`
	// Gossip carries a bounded sample of reputation claims.
	Gossip []RepClaim `json:"gossip,omitempty"`
	// Err reports a rejected store ("stored" responses only).
	Err string `json:"err,omitempty"`
}

var encodeBufs = sync.Pool{New: func() any { return new([]byte) }} // Encode's scratch

// Encode serializes the envelope for a netsim message payload. The
// payload outlives the call, so it is an exact-size copy.
func (e *Envelope) Encode() []byte {
	buf := encodeBufs.Get().(*[]byte)
	*buf = e.appendJSON((*buf)[:0])
	out := append(make([]byte, 0, len(*buf)), *buf...)
	encodeBufs.Put(buf)
	return out
}

func (e *Envelope) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"kind":`...), e.Kind)
	b = strconv.AppendUint(append(b, `,"rpc":`...), e.RPC, 10)
	b = e.From.appendJSON(append(b, `,"from":`...))
	b = appendID(append(b, `,"target":`...), e.Target)
	if e.Record != nil {
		b = e.Record.appendJSON(append(b, `,"record":`...))
	}
	b = appendList(b, `,"records":[`, e.Records, (*Record).appendJSON)
	b = appendList(b, `,"peers":[`, e.Peers, PeerInfo.appendJSON)
	b = appendList(b, `,"gossip":[`, e.Gossip, RepClaim.appendJSON)
	if e.Err != "" {
		b = appendString(append(b, `,"err":`...), e.Err)
	}
	return append(b, '}')
}

func (pi PeerInfo) appendJSON(b []byte) []byte {
	b = appendID(append(b, `{"id":`...), pi.ID)
	b = appendString(append(b, `,"addr":`...), pi.Addr)
	if len(pi.Key) > 0 {
		b = appendBytes(append(b, `,"key":`...), pi.Key)
	}
	return append(b, '}')
}

func (r *Record) appendJSON(b []byte) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	b = appendString(append(b, `{"kind":`...), r.Kind)
	b = appendID(append(b, `,"key":`...), r.Key)
	if r.Service != "" {
		b = appendString(append(b, `,"service":`...), r.Service)
	}
	b = appendString(append(b, `,"publisher":`...), r.Publisher)
	b = appendBytes(append(b, `,"public_key":`...), r.PublicKey)
	b = strconv.AppendUint(append(b, `,"seq":`...), r.Seq, 10)
	b = appendBody(append(b, `,"body":`...), r.Body)
	if len(r.Sig) > 0 {
		b = appendBytes(append(b, `,"sig":`...), r.Sig)
	}
	return append(b, '}')
}

func (c RepClaim) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"provider":`...), c.Provider)
	b = appendString(append(b, `,"reporter":`...), c.Reporter)
	b = strconv.AppendUint(append(b, `,"seq":`...), c.Seq, 10)
	b = strconv.AppendInt(append(b, `,"audits":`...), int64(c.Audits), 10)
	b = strconv.AppendInt(append(b, `,"violations":`...), int64(c.Violations), 10)
	b = strconv.AppendInt(append(b, `,"bypasses":`...), int64(c.Bypasses), 10)
	return append(b, '}')
}

// appendList writes an omitempty slice field: nothing when empty.
func appendList[T any](b []byte, open string, xs []T, elem func(T, []byte) []byte) []byte {
	if len(xs) == 0 {
		return b
	}
	b = append(b, open...)
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(x, b)
	}
	return append(b, ']')
}

// plain[c] reports whether encoding/json writes string byte c as is.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString writes s as a JSON string, through json.Marshal if it
// holds a byte that is not plain.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(append(b, '"'), s...)
	return append(b, '"')
}

// appendBytes writes p as encoding/json writes a []byte: null when nil,
// else padded standard base64.
func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = base64.StdEncoding.AppendEncode(append(b, '"'), p)
	return append(b, '"')
}

// appendID writes an ID as its MarshalText does: lower-case hex.
func appendID(b []byte, id ID) []byte {
	b = hex.AppendEncode(append(b, '"'), id[:])
	return append(b, '"')
}

// appendBody writes a body as json.Marshal writes a json.RawMessage:
// null when nil, else compacted with HTML escapes (a no-op, and skipped,
// for every decoded and every locally built body).
func appendBody(b, body []byte) []byte {
	if body == nil {
		return append(b, "null"...)
	}
	if compactLen(body) == len(body) && json.Valid(body) {
		return append(b, body...)
	}
	q, err := json.Marshal(json.RawMessage(body))
	if err != nil {
		panic("overlay: marshal record body: " + err.Error()) // not JSON: a caller bug
	}
	return append(b, q...)
}

// compactLen returns the length of the JSON value b starts with, or -1
// if it is not in appendBody's form: whitespace outside strings, or <,
// >, & or U+2028/U+2029 in them. json.Valid checks the grammar.
func compactLen(b []byte) int {
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				switch c := b[i]; {
				case plain[c]:
				case c == '\\':
					i++
				case c < 0x80, c == 0xe2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xa8:
					return -1
				}
			}
			if i >= len(b) {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i // a scalar, closed by the enclosing object
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',':
			if depth == 0 {
				return i
			}
		case ' ', '\t', '\n', '\r':
			return -1
		}
	}
	if depth != 0 {
		return -1
	}
	return len(b)
}

// DecodeEnvelope parses and bounds-checks one wire message. Anything
// malformed, non-canonical, oversized, of unknown kind, or carrying
// invalid peer entries is rejected whole: a hostile peer gets silence,
// not partial parsing. A list is cut off at its cap while parsing, so
// a hostile envelope costs no more than a legal one at the cap.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	if len(data) > maxEnvelopeBytes {
		return nil, fmt.Errorf("overlay: envelope %d bytes exceeds cap %d", len(data), maxEnvelopeBytes)
	}
	r := &reader{b: data}
	e := r.envelope()
	if r.need(r.i == len(data)); r.err != nil {
		return nil, r.err
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// validate holds every check on a parsed envelope's content, whichever
// parser produced it.
func (e *Envelope) validate() error {
	if !knownKinds[e.Kind] {
		return fmt.Errorf("overlay: unknown kind %q", e.Kind)
	}
	if !e.From.valid() {
		return fmt.Errorf("overlay: invalid sender info")
	}
	for _, p := range e.Peers {
		if !p.valid() {
			return fmt.Errorf("overlay: invalid peer entry %q", p.Addr)
		}
	}
	for _, r := range e.Records {
		if r == nil {
			return fmt.Errorf("overlay: nil record entry")
		}
		if err := r.wellFormed(); err != nil {
			return err
		}
	}
	if e.Record != nil {
		if err := e.Record.wellFormed(); err != nil {
			return err
		}
	}
	for _, c := range e.Gossip {
		if !c.wellFormed() {
			return fmt.Errorf("overlay: invalid gossip claim for %q", c.Provider)
		}
	}
	return nil
}

// reader walks an envelope in the order Encode writes it. Each read
// consumes its key (with the punctuation before it) and value; struct
// literals read in wire order, as Go evaluates calls left to right. The
// first mismatch sticks in err and makes later reads no-ops.
type reader struct {
	b   []byte
	i   int
	err error
}

// need fails the read unless ok.
func (r *reader) need(ok bool) {
	if !ok && r.err == nil {
		r.err = fmt.Errorf("overlay: decode envelope: malformed or non-canonical at byte %d", r.i)
	}
}

// opt consumes s if the input continues with it.
func (r *reader) opt(s string) bool {
	if r.err != nil || len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

func (r *reader) lit(s string) { r.need(r.opt(s)) }

func (r *reader) envelope() *Envelope {
	e := &Envelope{Kind: r.str(`{"kind":`), RPC: r.uint(`,"rpc":`), From: r.from(),
		Target: r.id(`,"target":`), Record: optional(r, `,"record":`, r.record),
		Records: list(r, `,"records":[`, maxRecords, r.record), Peers: r.peers(),
		Gossip: list(r, `,"gossip":[`, maxGossipClaims, r.claim), Err: optional(r, `,"err":`, r.nonEmpty)}
	r.lit(`}`)
	return e
}

// peer reads one peer entry. Its key, when present, is decoded into
// keyBuf and pi.Key is left nil: the caller decides where keys live.
func (r *reader) peer(key string, keyBuf []byte) (pi PeerInfo, hasKey bool) {
	r.lit(key)
	pi.ID, pi.Addr = r.id(`{"id":`), r.str(`,"addr":`)
	if hasKey = r.opt(`,"key":`); hasKey {
		r.pubKey("", keyBuf)
	}
	r.lit(`}`)
	return pi, hasKey
}

func (r *reader) from() PeerInfo {
	var key [ed25519.PublicKeySize]byte
	pi, hasKey := r.peer(`,"from":`, key[:])
	if hasKey {
		pi.Key = bytes.Clone(key[:])
	}
	return pi
}

// peers reads the peer list into stack scratch, then allocates the
// slice at its final length and every key in one slab. Like list, it
// fails at the separator before entry maxPeers+1.
func (r *reader) peers() []PeerInfo {
	if !r.opt(`,"peers":[`) {
		return nil
	}
	const size = ed25519.PublicKeySize
	var (
		scratch [maxPeers]PeerInfo
		hasKey  [maxPeers]bool
		keyBuf  [maxPeers * size]byte
		n, nk   int
	)
	for r.err == nil {
		if scratch[n], hasKey[n] = r.peer("", keyBuf[nk*size:][:size]); hasKey[n] {
			nk++
		}
		if n++; !r.opt(",") {
			break
		}
		r.need(n < maxPeers)
	}
	if r.lit("]"); r.err != nil {
		return nil
	}
	out := make([]PeerInfo, n)
	keys := bytes.Clone(keyBuf[:nk*size])
	for i := range out {
		out[i] = scratch[i]
		if hasKey[i] {
			out[i].Key, keys = keys[:size:size], keys[size:]
		}
	}
	return out
}

func (r *reader) record(key string) *Record {
	r.lit(key)
	rec := &Record{Kind: r.str(`{"kind":`), Key: r.id(`,"key":`), Service: optional(r, `,"service":`, r.nonEmpty),
		Publisher: r.str(`,"publisher":`), PublicKey: r.pubKey(`,"public_key":`, make([]byte, ed25519.PublicKeySize)),
		Seq: r.uint(`,"seq":`), Body: r.body(`,"body":`), Sig: optional(r, `,"sig":`, r.bytes)}
	r.lit(`}`)
	return rec
}

func (r *reader) claim(key string) RepClaim {
	r.lit(key)
	c := RepClaim{Provider: r.str(`{"provider":`), Reporter: r.str(`,"reporter":`), Seq: r.uint(`,"seq":`),
		Audits: r.int(`,"audits":`), Violations: r.int(`,"violations":`), Bypasses: r.int(`,"bypasses":`)}
	r.lit(`}`)
	return c
}

// optional reads an omitempty field, absent when its key is.
func optional[T any](r *reader, key string, read func(string) T) (v T) {
	if r.opt(key) {
		v = read("")
	}
	return v
}

// list reads an omitempty list whose key ends in its bracket, failing at
// the separator before entry max+1: nothing past the cap is parsed.
func list[T any](r *reader, key string, max int, elem func(string) T) (out []T) {
	if !r.opt(key) {
		return nil
	}
	for r.err == nil {
		if out = append(out, elem("")); !r.opt(",") {
			break
		}
		r.need(len(out) < max)
	}
	r.lit("]")
	return out
}

// quoted consumes a string token and returns it with its quotes, and
// whether every byte inside is plain (so no escape either).
func (r *reader) quoted(key string) ([]byte, bool) {
	r.lit(key)
	b := r.b[r.i:]
	for j, isPlain := 1, true; r.err == nil && len(b) > 0 && b[0] == '"' && j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			r.i += j + 1
			return b[:j+1], isPlain
		case c == '\\':
			j++
			isPlain = false
		case !plain[c]:
			isPlain = false
		}
	}
	r.need(false)
	return nil, false
}

// str reads a string. Any but a plain one goes through encoding/json,
// and is kept only if appendString writes it back byte for byte.
func (r *reader) str(key string) string {
	q, isPlain := r.quoted(key)
	if isPlain {
		return string(q[1 : len(q)-1])
	}
	var s string // declared here, so only this path allocates it
	r.need(q == nil || json.Unmarshal(q, &s) == nil && bytes.Equal(appendString(nil, s), q))
	return s
}

// nonEmpty reads an omitempty string, present only when not empty.
func (r *reader) nonEmpty(key string) string {
	s := r.str(key)
	r.need(s != "")
	return s
}

// strictBase64 refuses non-zero pad bits; CR and LF, which it skips,
// are not plain.
var strictBase64 = base64.StdEncoding.Strict()

// bytes reads a signature: padded standard base64, not empty (an empty
// one is omitted).
func (r *reader) bytes(key string) []byte {
	q, isPlain := r.quoted(key)
	if r.need(isPlain && len(q) > 2); r.err != nil {
		return nil
	}
	out := make([]byte, strictBase64.DecodedLen(len(q)-2))
	n, err := strictBase64.Decode(out, q[1:len(q)-1])
	r.need(err == nil)
	return out[:n]
}

// fixed reads a string token of exactly n bytes and returns what is
// between its quotes, for the caller to check.
func (r *reader) fixed(key string, n int) []byte {
	r.lit(key)
	b := r.b[r.i:]
	if r.need(r.err == nil && len(b) > n+1 && b[0] == '"' && b[n+1] == '"'); r.err != nil {
		return nil
	}
	r.i += n + 2
	return b[1 : n+1]
}

// keyChars is an Ed25519 public key's length in padded base64.
const keyChars = (ed25519.PublicKeySize + 2) / 3 * 4

// pubKey reads an Ed25519 public key into dst and returns it: exactly
// keyChars base64 digits that decode to len(dst) bytes. A key of any
// other size fails valid or wellFormed, so this refuses nothing the
// checks after it would pass; CR and LF, which the strict decoder
// skips, leave the key short.
func (r *reader) pubKey(key string, dst []byte) []byte {
	var buf [keyChars / 4 * 3]byte // DecodedLen(keyChars): one byte more than a key
	n, err := strictBase64.Decode(buf[:], r.fixed(key, keyChars))
	r.need(err == nil && n == len(dst))
	return dst[:copy(dst, buf[:n])]
}

// hexVal maps a lower-case hex digit to its value and every other
// byte, upper-case digits included, to 0xff.
var hexVal = func() (t [256]byte) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = byte(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = byte(c - 'a' + 10)
		default:
			t[c] = 0xff
		}
	}
	return t
}()

// id reads an ID in one pass: exactly 2*IDBytes lower-case hex digits.
func (r *reader) id(key string) (id ID) {
	d := r.fixed(key, 2*IDBytes)
	if d == nil {
		return id
	}
	var bad byte
	for i := range id {
		hi, lo := hexVal[d[2*i]], hexVal[d[2*i+1]]
		bad |= hi | lo
		id[i] = hi<<4 | lo
	}
	r.need(bad < 0x10)
	return id
}

// digits reads an integer in canonical form, an optional minus then
// digits with no leading zero and not "-0", for strconv to range-check.
func (r *reader) digits(key string) []byte {
	r.lit(key)
	j := r.i
	for j < len(r.b) && ('0' <= r.b[j] && r.b[j] <= '9' || j == r.i && r.b[j] == '-') {
		j++
	}
	d := r.b[r.i:j]
	if r.need(len(d) == 1 || len(d) > 1 && d[0] != '0' && (d[0] != '-' || d[1] != '0')); r.err != nil {
		return nil
	}
	r.i = j
	return d
}

func (r *reader) uint(key string) uint64 {
	v, err := strconv.ParseUint(string(r.digits(key)), 10, 64)
	r.need(err == nil)
	return v
}

func (r *reader) int(key string) int {
	v, err := strconv.ParseInt(string(r.digits(key)), 10, strconv.IntSize)
	r.need(err == nil)
	return int(v)
}

// body reads a record body in appendBody's form, copied out.
func (r *reader) body(key string) []byte {
	r.lit(key)
	n := compactLen(r.b[r.i:])
	if r.need(n > 0 && json.Valid(r.b[r.i:r.i+n])); r.err != nil {
		return nil
	}
	body := make([]byte, n)
	r.i += copy(body, r.b[r.i:])
	return body
}
