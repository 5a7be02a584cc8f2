package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"pvn/internal/deployserver"
	"pvn/internal/discovery"
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
