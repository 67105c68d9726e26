package memctrl

import "xfm/internal/telemetry"

// Label children of the catalogue's memctrl families, resolved once so
// the request path never does a label lookup.
var (
	mReqReads    = telemetry.MemctrlRequests.With("read")
	mReqWrites   = telemetry.MemctrlRequests.With("write")
	mReadStalls  = telemetry.MemctrlQueueFullStalls.With("read")
	mWriteStalls = telemetry.MemctrlQueueFullStalls.With("write")
)
