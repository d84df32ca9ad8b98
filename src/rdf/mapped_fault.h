#ifndef SPECQP_RDF_MAPPED_FAULT_H_
#define SPECQP_RDF_MAPPED_FAULT_H_

#include <cstddef>
#include <cstdint>

namespace specqp {

// SIGBUS containment for memory-mapped store files.
//
// A file-backed mapping raises SIGBUS when a load touches a page past the
// file's current end — e.g. the file was truncated while mapped, or the
// device dropped out from under it. Left unhandled that kills the whole
// process, taking every healthy shard down with the broken one.
//
// The containment strategy here deliberately avoids longjmp-style frame
// unwinding: block decode holds the PostingBlockSource memo mutex, so
// jumping out of the faulting frame would abandon a lock. Instead the
// handler *repairs the page in place*:
//
//   1. Each MmapStore registers its mapping in a fixed-size, lock-free
//      registry (async-signal-safe to read).
//   2. The process-wide SIGBUS handler checks si_addr against the
//      registry. For an address inside a registered mapping it mmaps an
//      anonymous zero page MAP_FIXED over the faulting page, latches the
//      region's fault counter, and returns — the faulting load re-executes
//      and reads zeros.
//   3. Faults for addresses outside every registered region chain to the
//      previously installed handler (sanitizer runtimes, default action),
//      so unrelated bugs still crash loudly.
//
// Execution therefore continues over well-defined garbage (zeros) with no
// lock left dangling and no frame unwound; readers that bound-check ids
// stay memory-safe, and the engine notices the latched fault at its next
// poll point (ShardedStore::PollFaults, post-query checks) and fails the
// query with IoError / quarantines the shard instead of crashing.
//
// The healthy path costs nothing per read: no per-access checks, only a
// relaxed counter load at explicit poll points.

// Registers [base, base+len) for SIGBUS containment. Installs the signal
// handler on first use. Returns a token (>= 0) for the region, or -1 when
// the registry is full (the mapping simply stays uncontained — a fault in
// it falls through to the chained handler). Thread-safe.
int RegisterMappedRegion(const void* base, size_t len);

// Removes a region from the registry. The token is recycled; callers must
// not use it afterwards. Passing -1 is a no-op.
void UnregisterMappedRegion(int token);

// Number of pages zero-filled by the handler inside this region since
// registration. Nonzero means some reads through the mapping returned
// zeros instead of file bytes and the data backed by it must not be
// trusted. Monotonic; -1 tokens report 0.
uint64_t MappedRegionFaults(int token);

// Test hook: raises a contained fault on `addr` as if the kernel had
// delivered SIGBUS there (addr must lie inside a registered region for
// the call to return true). Used to exercise the poll/quarantine paths
// without having to truncate real files in-process.
bool SimulateMappedFault(const void* addr);

}  // namespace specqp

#endif  // SPECQP_RDF_MAPPED_FAULT_H_
