package fence

import (
	"sync/atomic"
	"unsafe"
)

// Asymmetric reports whether this process publishes fence-free hazard
// pointers with plain stores (true) or with atomic stores (false). It is
// fixed at package initialization, before any reclamation domain exists,
// and never changes afterwards.
func Asymmetric() bool { return asymmetric }

// Publish stores v into p on a fence-free publication path: a hazard
// pointer whose visibility to reclaimers is guaranteed by the next Heavy
// call rather than by the store itself.
//
// In asymmetric mode it is a plain store, one MOV on amd64, which may sit in
// the core's store buffer until a Heavy call drains it. Readers of p must
// therefore not rely on seeing v before the next Heavy call returns. The
// store stays ordered before the caller's later atomic loads in the
// compiled code; only the hardware's store-to-load reordering is left open,
// and that is what Heavy closes. Otherwise Publish is p.Store(v).
func Publish(p *atomic.Uint64, v uint64) {
	if asymmetric {
		*(*uint64)(unsafe.Pointer(p)) = v
		return
	}
	p.Store(v)
}
