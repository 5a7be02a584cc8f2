package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The overlay's trust boundary is in its types: a record reaches node
// state only as a verified value, which only Node.verifyRecord makes,
// and a wire PeerInfo becomes a contact only through an inbound
// envelope, which only Node.deliver makes from what DecodeEnvelope
// accepted. TestOverlayTrustBoundary holds both halves: each way round
// the boundary, written as a snippet in package overlay, must fail to
// type-check against the real package, and only the functions named
// here may build a trust type or a contact.

// boundaryProducers names, for each trust type, the functions that may
// build one: the check that vouches for it, or (for Peer) the node's
// own identity and the conversions from a decoded envelope.
var boundaryProducers = map[string][]string{
	"verified": {"verifyRecord"},
	"inbound":  {"deliver"},
	"Peer":     {"NewNode", "sender", "peer"},
}

// boundaryCases are the snippets that must not compile, each with the
// type error it must fail on.
var boundaryCases = []struct {
	name, src, want string
}{
	{"admit a decoded record", `
func boundarySnippet(n *Node, data []byte) error {
	e, err := DecodeEnvelope(data)
	if err != nil {
		return err
	}
	return n.admit(e.Record)
}`, `cannot use e\.Record .* as verified value in argument to n\.admit`},

	// The merge before verify: a forged record with an inflated Seq
	// displaced the honest one before any check ran.
	{"merge a reply record before verifying it", `
func boundarySnippet(lk *lookup, resp inbound) {
	for _, r := range resp.Records {
		if old, ok := lk.records[r.Publisher]; !ok || r.Seq > old.r.Seq {
			lk.records[r.Publisher] = r
		}
	}
}`, `cannot use r .* as verified value in assignment`},

	// A shortlist entry from a wire entry whose key binding nothing
	// checked.
	{"wire peer to contact, unchecked", `
func boundarySnippet(lk *lookup, pi PeerInfo) {
	lk.insert(&lkEntry{peer: pi.Peer()})
}`, `pi\.Peer undefined`},
	{"wire peer into the routing table", `
func boundarySnippet(n *Node, pi PeerInfo) {
	n.table.Update(pi, n.clock.Now())
}`, `cannot use pi .* as Peer value in argument to n\.table\.Update`},

	// An exported entry point acting on a wire record.
	{"install a wire record", `
func (n *Node) BadInstall(r *Record) error {
	return n.admit(r)
}`, `cannot use r .* as verified value in argument to n\.admit`},

	// A helper that persists what its caller hands it unverified.
	{"absorb through a helper", `
func (n *Node) Absorb(r *Record) { n.keep(r) }

func (n *Node) keep(r *Record) { n.records[r.Key][r.Publisher] = r }`,
		`cannot use r .* as verified value in assignment`},

	// Package-level record state takes verified records too.
	{"persist a wire record globally", `
var recent []verified

func BadGlobal(r *Record) { recent = append(recent, r) }`,
		`cannot use r .* as verified value in argument to append`},
}

// boundaryControl uses every checked path; it must compile, so a harness
// that fails every snippet cannot pass vacuously.
const boundaryControl = `
func boundarySnippet(n *Node, lk *lookup, resp inbound) error {
	for i, pi := range resp.Peers {
		if _, known := lk.find(pi.ID); !known {
			lk.insert(&lkEntry{peer: resp.peer(i)})
		}
	}
	n.table.Update(resp.sender(), n.clock.Now())
	for _, r := range resp.Records {
		v, err := n.verifyRecord(r)
		if err != nil {
			return err
		}
		lk.records[r.Publisher] = v
		if err := n.admit(v); err != nil {
			return err
		}
	}
	return nil
}`

func TestOverlayTrustBoundary(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLoader(root, module)
	if err != nil {
		t.Fatal(err)
	}
	path := module + "/internal/overlay"
	dir := l.dirFor(path)
	files, err := l.parseDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, errs := l.check(path, dir, files)
	if len(errs) > 0 {
		t.Fatalf("overlay does not type-check: %v", errs)
	}
	bad, built := strayBuilds(pkg)
	for _, b := range bad {
		t.Error(b)
	}
	for name, producers := range boundaryProducers {
		if built[name] == 0 {
			t.Errorf("none of %v builds a %s: the producers moved, so this test checks nothing", producers, name)
		}
	}

	// with type-checks the overlay with one more file holding src, and
	// returns the result narrowed to that file.
	with := func(src string) (*Package, []error) {
		f, err := parser.ParseFile(l.fset, "boundary_snippet.go", "package overlay\n"+src, 0)
		if err != nil {
			t.Fatalf("snippet does not parse: %v", err)
		}
		pkg, errs := l.check(path, dir, append(files[:len(files):len(files)], f))
		pkg.Files = []*ast.File{f}
		return pkg, errs
	}
	if pkg, errs := with(boundaryControl); len(errs) > 0 {
		t.Fatalf("control snippet, which uses only the checked paths, must compile: %v", errs)
	} else if bad, _ := strayBuilds(pkg); len(bad) > 0 {
		t.Fatalf("control snippet builds a trust type: %v", bad)
	}
	// Copying a wire entry's fields into a Peer compiles, since Peer is
	// an exported plain struct; the producer rule is what refuses it.
	if pkg, errs := with(boundaryFieldCopy); len(errs) > 0 {
		t.Fatalf("field-copy snippet must compile, to show the producer rule catching it: %v", errs)
	} else if bad, _ := strayBuilds(pkg); len(bad) != 1 || !strings.Contains(bad[0], "Peer built in boundarySnippet") {
		t.Errorf("a contact copied from an unchecked wire entry: stray builds %v, want the one Peer", bad)
	}
	for _, c := range boundaryCases {
		_, errs := with(c.src)
		if len(errs) == 0 {
			t.Errorf("%s: compiles; the boundary lets it through", c.name)
			continue
		}
		want := regexp.MustCompile(c.want)
		for _, err := range errs {
			if !want.MatchString(err.Error()) {
				t.Errorf("%s: fails for another reason than the boundary: %v (want `%s`)", c.name, err, c.want)
			}
		}
	}
}

// boundaryFieldCopy is the dropped key-binding check written without
// the removed conversion: a shortlist contact built field by field from
// a wire entry.
const boundaryFieldCopy = `
func boundarySnippet(lk *lookup, pi PeerInfo) {
	lk.insert(&lkEntry{peer: Peer{ID: pi.ID, Addr: pi.Addr, Key: pi.Key}})
}`

// strayBuilds returns one line per composite literal of a trust type
// outside the functions allowed to build it, and how many literals of
// each type those functions hold.
func strayBuilds(pkg *Package) (bad []string, built map[string]int) {
	built = map[string]int{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				named, ok := pkg.Info.Types[lit].Type.(*types.Named)
				if !ok || named.Obj().Pkg() != pkg.Types {
					return true
				}
				name := named.Obj().Name()
				producers, trust := boundaryProducers[name]
				switch {
				case !trust:
				case !slices.Contains(producers, fn):
					bad = append(bad, fmt.Sprintf("%s: %s built in %s; only %v may build one",
						pkg.Fset.Position(lit.Pos()), name, cmp.Or(fn, "package scope"), producers))
				default:
					built[name]++
				}
				return true
			})
		}
	}
	return bad, built
}
