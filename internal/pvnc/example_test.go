package pvnc_test

import (
	"fmt"

	"pvn/internal/pvnc"
)

// ExampleParse walks the PVNC workflow: parse the user-readable text,
// check the deployment invariants, and quote the resource estimate a
// provider prices during discovery.
func ExampleParse() {
	cfg, err := pvnc.Parse(`
pvnc example
owner alice
device 10.0.0.5
middlebox pii pii-detect mode=block
chain secure pii
policy 100 match proto=tcp dport=80 via=secure action=forward
policy 0 match any action=forward
`)
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	fmt.Println("violations:", len(cfg.Validate()))
	e := cfg.Estimate()
	fmt.Printf("middleboxes=%d rules=%d memory=%dMB\n",
		e.NumMiddleboxes, e.NumFlowRules, e.MemoryBytes>>20)
	// Output:
	// violations: 0
	// middleboxes=1 rules=4 memory=6MB
}

// ExampleCompile lowers a configuration to the match/action rules a
// deployment server installs.
func ExampleCompile() {
	cfg, _ := pvnc.Parse(`
pvnc example
owner alice
device 10.0.0.5
policy 100 match proto=tcp dport=443 action=tunnel:cloud
policy 0 match any action=forward
`)
	compiled, err := pvnc.Compile(cfg, pvnc.CompileOptions{Cookie: 7, UpstreamPort: 1})
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	for _, r := range compiled.Rules {
		fmt.Printf("prio=%d %s -> %v\n", r.Priority, r.Match.String(), r.Actions)
	}
	// Output:
	// prio=100 src=10.0.0.5/32,proto=6,dport=443 -> [tunnel:cloud]
	// prio=100 dst=10.0.0.5/32,proto=6,sport=443 -> [tunnel:cloud]
	// prio=0 src=10.0.0.5/32 -> [output:1]
	// prio=0 dst=10.0.0.5/32 -> [output:0]
}

// ExampleReduce shows subset renegotiation: a provider that cannot host
// one middlebox type still gets a valid, deployable configuration.
func ExampleReduce() {
	cfg, _ := pvnc.Parse(`
pvnc example
owner alice
device 10.0.0.5
middlebox pii pii-detect
middlebox vid transcoder
chain a pii
chain b vid
policy 100 match proto=tcp dport=80 via=a action=forward
policy 90 match proto=tcp dport=8080 via=b action=forward
policy 0 match any action=forward
`)
	reduced, dropped, _ := pvnc.Reduce(cfg, map[string]bool{"pii-detect": true})
	fmt.Println("kept middleboxes:", len(reduced.Middleboxes))
	fmt.Println("dropped:", dropped)
	fmt.Println("still valid:", len(reduced.Validate()) == 0)
	// Output:
	// kept middleboxes: 1
	// dropped: [middlebox:vid chain:b policy-via:90]
	// still valid: true
}
