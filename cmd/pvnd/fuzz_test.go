package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"pvn/internal/deployserver"
	"pvn/internal/discovery"
	"pvn/internal/pvnc"
)

// residentHost is testSrv with every builtin middlebox type on offer at
// no charge and three subscribers already deployed, one of them sharing
// the fuzzed requests' usual owner.
func residentHost(t *testing.T) *deployserver.Server {
	t.Helper()
	srv := testSrv(t)
	for _, typ := range srv.Runtime.Types() {
		srv.Provider.Supported[typ] = 0
	}
	for i, owner := range []string{"alice", "bob", "carol"} {
		src := fmt.Sprintf("pvnc r%d\nowner %s\ndevice 10.0.9.%d\nmiddlebox pii pii-detect mode=block\nmiddlebox trk tracker-block domains=ads.example\nchain c pii trk\nchain d trk\npolicy 100 match proto=tcp dport=80 via=c action=forward\npolicy 50 match proto=tcp dport=443 via=d action=forward\npolicy 0 match any action=forward\n", i, owner, i+1)
		if resp := srv.HandleDeploy(&discovery.DeployRequest{DeviceID: fmt.Sprintf("resident%d", i), PVNCSource: src}); !resp.OK {
			t.Fatalf("resident %s: %s", owner, resp.Reason)
		}
	}
	return srv
}

// hostState is what one tenant's deploy and teardown must leave as it
// found it.
type hostState struct {
	rules, instances, owners int
	memory                   int
	chains, devices          []string
}

func stateOf(srv *deployserver.Server) hostState {
	chains := srv.Runtime.ChainKeys()
	slices.Sort(chains)
	return hostState{
		rules:     srv.Switch.Table.Len(),
		instances: len(srv.Runtime.InstanceIDs()),
		owners:    srv.Runtime.OwnerCount(),
		memory:    srv.Runtime.MemoryUsed(),
		chains:    chains,
		devices:   srv.DeviceIDs(),
	}
}

// FuzzDeployRequest: pvnd hands the deploy request of any client's JSON
// envelope to HandleDeploy on a host that already carries residents.
// Whatever the request compiles to — or wherever it is refused or rolled
// back — HandleDeploy must not panic, and a deploy that succeeds must
// tear down again to exactly the host it found: the same rule count,
// instances, memory, chain keys, runtime owners and deployment book.
// This runs RemoveEntries on whatever rule set an arbitrary PVNC
// compiles to.
func FuzzDeployRequest(f *testing.F) {
	for _, src := range []string{
		testCfg,
		"pvnc two\nowner alice\ndevice 10.0.0.5\ndevice 10.0.9.2\nmiddlebox p pii-detect mode=block\nmiddlebox t tracker-block domains=x.example\nchain a p t\nchain b t p\npolicy 100 match proto=tcp dport=80 via=a action=forward\npolicy 90 match proto=udp dport=53 dst=9.9.9.0/24 via=b action=forward\npolicy 80 match proto=tcp dport=25 action=drop\npolicy 0 match any action=forward\n",
		"pvnc bad\nowner alice\ndevice 10.0.0.5\nmiddlebox d dns-validate\nchain c d\npolicy 100 match proto=udp dport=53 via=c action=forward\npolicy 0 match any action=forward\n",
		"pvnc rollback\nowner bob\ndevice 10.0.0.6\nmiddlebox p pii-detect mode=block\nmiddlebox q pii-detect mode=bogus\nchain c p q\npolicy 100 match proto=tcp via=c action=forward\npolicy 0 match any action=forward\n",
		"pvnc nochain\nowner dave\ndevice 10.0.9.1\npolicy 0 match any action=drop\n",
		"not a pvnc",
	} {
		for _, dev := range []string{"dev1", "resident0"} {
			data, err := json.Marshal(&request{Type: "deploy", Deploy: &discovery.DeployRequest{DeviceID: dev, PVNCSource: src, Payment: 10}})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"type":"deploy","deploy":{"device_id":"d","pvnc_uri":"store://x","pvnc_hash":"00"}}`))
	f.Add([]byte(`{"type":"deploy","deploy":{"offer_id":"o1","device_id":"d"}}`))
	f.Add([]byte(`{"type":"deploy"}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		if json.Unmarshal(data, &req) != nil || req.Deploy == nil {
			return
		}
		req.Type = "deploy"
		srv := residentHost(t)
		// A resident's device ID would supersede the resident: a real
		// change of the host, not a tenant coming and going.
		if srv.Deployment(req.Deploy.DeviceID) != nil {
			req.Deploy.DeviceID += "/visitor"
		}
		before := stateOf(srv)
		resp := dispatch(&req, srv)
		if resp.Deploy == nil {
			t.Fatalf("deploy request answered %+v", resp)
		}
		if resp.Deploy.OK {
			if _, _, err := srv.Teardown(req.Deploy.DeviceID); err != nil {
				t.Fatalf("teardown after an accepted deploy: %v", err)
			}
		}
		if after := stateOf(srv); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("deploy ok=%v (%s) and teardown left the host changed:\nbefore %+v\nafter  %+v", resp.Deploy.OK, resp.Deploy.Reason, before, after)
		}
	})
}

// FuzzDispatchDM: pvnd decodes every request line a hostile network
// sends and answers a DM through ProviderPolicy.HandleDM. Decoding and
// dispatch may not panic, and any offer that comes back must be
// well-formed: it answers that DM's seq, quotes only required types the
// provider hosts at the provider's prices, sums them, expires after
// now, and reaches the client's response intact. A DM that names no
// device gets no offer and takes no slot in the offer book.
func FuzzDispatchDM(f *testing.F) {
	cfg, err := pvnc.Parse(`
pvnc fuzz
owner alice
device 10.0.0.5
middlebox tlsv tls-verify
middlebox pii pii-detect mode=block
middlebox vid transcoder
chain secure tlsv pii
chain video vid
policy 100 match proto=tcp dport=443 via=secure action=forward
policy 80 match dst=203.0.113.0/24 via=video action=forward
policy 0 match any action=forward
`)
	if err != nil {
		f.Fatal(err)
	}
	n := discovery.NewNegotiator("dev1", cfg, 1000, discovery.StrategyStrict)
	prices := map[string]int64{"tls-verify": 100, "pii-detect": 200, "transcoder": 300}
	full := &discovery.ProviderPolicy{Provider: "isp-full", DeployServer: "pvn-host",
		Standards: []string{discovery.StandardMatchAction, discovery.StandardMiddlebox}, Supported: prices}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// The DM and offer datagram seeds of the former UDP transport,
	// each carried as the dm of a request line.
	for _, dm := range [][]byte{
		mustJSON(n.MakeDM()),
		mustJSON(full.HandleDM(n.MakeDM(), 0)),
		mustJSON(&discovery.DM{DeviceID: "d", Standards: []string{discovery.StandardMatchAction},
			RequiredTypes: []string{"tls-verify", "tls-verify", "unhosted"}}),
		[]byte(`{"device_id":""}`),
		[]byte(`{"offer_id":"o","price_per_module":{"a":-1}}`),
		[]byte(`null`),
		{},
	} {
		if len(dm) == 0 {
			f.Add(dm)
			continue
		}
		f.Add([]byte(`{"type":"dm","dm":` + string(dm) + "}\n"))
	}
	f.Add([]byte(`{"type":"dm","dm":{"standards":["match-action/1"],"required_types":["pii-detect"]}}`))

	const now = 5 * time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		if json.NewDecoder(bytes.NewReader(data)).Decode(&req) != nil {
			return
		}
		req.Type = "dm"
		srv := testSrv(t)
		srv.Now = func() time.Duration { return now }
		policy := srv.Provider
		policy.Supported = prices
		dm := req.DM
		resp := dispatch(&req, srv)
		o := resp.Offer
		if dm == nil {
			if resp.Error == "" || o != nil {
				t.Fatalf("request without a dm answered %+v", resp)
			}
			return
		}
		if dm.DeviceID == "" {
			if o != nil || policy.OfferStatus(policy.Provider+"-1", now) != discovery.OfferUnknown {
				t.Fatalf("DM without a device ID got offer %+v or a book slot", o)
			}
			return
		}
		if o == nil {
			return
		}
		if o.OfferID == "" || o.Provider != policy.Provider || o.DMSeq != dm.Seq || o.ExpiresAt <= now {
			t.Fatalf("malformed offer %+v for DM %+v", o, dm)
		}
		required := map[string]bool{}
		for _, rt := range dm.RequiredTypes {
			required[rt] = true
		}
		var total int64
		for _, st := range o.SupportedTypes {
			price, hosted := policy.Supported[st]
			if !required[st] || !hosted || o.PricePerModule[st] != price {
				t.Fatalf("offer quotes %q (required %t, hosted %t, price %d of %d)", st, required[st], hosted, o.PricePerModule[st], price)
			}
			total += price
		}
		if o.TotalCost != total {
			t.Fatalf("offer total %d, supported types sum to %d", o.TotalCost, total)
		}
		var wire bytes.Buffer
		if err := json.NewEncoder(&wire).Encode(resp); err != nil {
			t.Fatal(err)
		}
		var got response
		if err := json.NewDecoder(&wire).Decode(&got); err != nil {
			t.Fatalf("client cannot decode the offer: %v", err)
		}
		if !reflect.DeepEqual(got.Offer, o) {
			t.Fatalf("offer changed on the wire:\nsent %+v\ngot  %+v", o, got.Offer)
		}
	})
}
