package middlebox

import "time"

// SyncExecutor forwards to a Runtime. It predates the Runtime locking
// itself and survives for callers that hand a pipeline
// middlebox.Synchronized(rt); passing rt directly is equivalent.
type SyncExecutor struct{ rt *Runtime }

// Synchronized wraps rt. The Runtime is already safe to call from any
// number of goroutines, so this adds nothing but the type.
func Synchronized(rt *Runtime) *SyncExecutor { return &SyncExecutor{rt: rt} }

// ExecuteChain implements openflow.ChainExecutor.
func (s *SyncExecutor) ExecuteChain(chain string, data []byte) ([]byte, time.Duration, error) {
	return s.rt.ExecuteChain(chain, data)
}

// ExecuteChainBatch is ExecuteChain for each packet in order, filling the
// caller's result slices. The dataplane calls ExecuteChain per packet;
// this survives only as the name bench/ calls.
func (s *SyncExecutor) ExecuteChainBatch(chain string, pkts [][]byte, outs [][]byte, delays []time.Duration, errs []error) {
	for i, p := range pkts {
		outs[i], delays[i], errs[i] = s.rt.ExecuteChain(chain, p)
	}
}
