//go:build linux && (amd64 || arm64)

package transport

import (
	"sync"
	"syscall"
	"unsafe"

	"github.com/amuse/smc/internal/ident"
)

// Batched UDP syscalls: recvmmsg on the receive loop and sendmmsg
// behind SendBatch move up to mmsgBatch datagrams per kernel crossing,
// so a burst (the reliable layer filling a window, a proxy flushing a
// coalesced batch) pays one syscall instead of one per datagram. The
// golang.org/x/net ipv4 ReadBatch/WriteBatch wrappers provide the same
// thing, but this module is dependency-free, so the two syscalls are
// issued directly; both exist on every supported linux kernel (2.6.33
// / 3.0). Message vectors — headers, iovecs, sockaddrs and receive
// buffers — are allocated once and reused (recv) or pooled (send), so
// the steady state adds no per-datagram allocation. Other platforms
// fall back to the portable one-datagram-per-syscall path
// (mmsg_fallback.go).

const mmsgBatch = 32

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message byte count filled in (recvmmsg) or consumed (sendmmsg).
// syscall.Msghdr ends 8-byte aligned on both supported arches, so the
// explicit pad reproduces the C layout exactly.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   uint32
}

// msgVec is one reusable message vector: parallel slices wired
// together so hdrs[i] points at names[i] and iovs[i], and iovs[i] at
// bufs[i] (receive) or a caller buffer (send).
type msgVec struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	bufs  [][]byte
}

// newMsgVec wires a vector of n messages; withBufs allocates owned
// receive buffers, the send side points iovecs at caller data instead.
func newMsgVec(n int, withBufs bool) *msgVec {
	v := &msgVec{
		hdrs:  make([]mmsghdr, n),
		iovs:  make([]syscall.Iovec, n),
		names: make([]syscall.RawSockaddrInet4, n),
	}
	if withBufs {
		v.bufs = make([][]byte, n)
	}
	for i := range v.hdrs {
		if withBufs {
			v.bufs[i] = make([]byte, MaxUDPDatagram+1)
			v.iovs[i].Base = &v.bufs[i][0]
			v.iovs[i].Len = uint64(len(v.bufs[i]))
		}
		v.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&v.names[i]))
		v.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(v.names[i]))
		v.hdrs[i].hdr.Iov = &v.iovs[i]
		v.hdrs[i].hdr.Iovlen = 1
	}
	return v
}

// sendVecPool recycles send-side message vectors across SendBatch
// callers (one reliable sender goroutine per destination).
var sendVecPool = sync.Pool{New: func() interface{} { return newMsgVec(mmsgBatch, false) }}

func recvmmsg(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(flags), 0, 0)
	return int(n), errno
}

func sendmmsg(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(flags), 0, 0)
	return int(n), errno
}

// sockaddrID converts a kernel-filled IPv4 sockaddr to a service ID
// without building a net.UDPAddr. Port bytes are network order.
func sockaddrID(sa *syscall.RawSockaddrInet4) (ident.ID, bool) {
	if sa.Family != syscall.AF_INET {
		return ident.Nil, false
	}
	pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
	v := uint64(sa.Addr[0])<<40 | uint64(sa.Addr[1])<<32 |
		uint64(sa.Addr[2])<<24 | uint64(sa.Addr[3])<<16 |
		uint64(pb[0])<<8 | uint64(pb[1])
	return ident.New(v), true
}

// idSockaddr is the inverse: a service ID as a kernel sockaddr.
func idSockaddr(id ident.ID, sa *syscall.RawSockaddrInet4) {
	v := uint64(id)
	sa.Family = syscall.AF_INET
	sa.Addr = [4]byte{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16)}
	pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
	pb[0], pb[1] = byte(v>>8), byte(v)
}

// readLoopBatched drains the socket with recvmmsg, delivering every
// datagram of a burst for one syscall. It reports false when batched
// reads cannot be set up (the caller then runs the portable loop) and
// true when it ran to socket closure.
func (t *UDPTransport) readLoopBatched() bool {
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return false
	}
	vec := newMsgVec(mmsgBatch, true)
	for {
		var n int
		var rerr syscall.Errno
		err := rc.Read(func(fd uintptr) bool {
			n, rerr = recvmmsg(fd, vec.hdrs, syscall.MSG_DONTWAIT)
			// Returning false parks the goroutine in the runtime
			// poller until the socket is readable again — the batched
			// equivalent of a blocking ReadFromUDP.
			return !(rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK)
		})
		if err != nil {
			return true // socket closed (or hard poll error): loop done
		}
		if rerr != 0 {
			if rerr == syscall.EINTR {
				continue
			}
			return true
		}
		for i := 0; i < n; i++ {
			id, ok := sockaddrID(&vec.names[i])
			// Namelen is rewritten by the kernel per message; reset it
			// for the next call regardless of what this one was.
			vec.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(vec.names[i]))
			if !ok {
				continue
			}
			// Receive overflow drops, as real UDP does; after Close the
			// next recvmmsg fails and ends the loop.
			t.inbox.Put(pooledDatagram(id, vec.bufs[i][:vec.hdrs[i].n]))
		}
	}
}

// sendBatched transmits bufs to one destination with sendmmsg,
// chunking by the pooled vector size. Partial sends retry the
// remainder; on a datagram network any residual error is
// indistinguishable from loss, so only setup errors are returned.
func (t *UDPTransport) sendBatched(dst ident.ID, bufs [][]byte) error {
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return err
	}
	vec := sendVecPool.Get().(*msgVec)
	defer func() {
		for i := range vec.iovs {
			vec.iovs[i].Base = nil // do not pin caller buffers in the pool
		}
		sendVecPool.Put(vec)
	}()
	for len(bufs) > 0 {
		n := len(bufs)
		if n > mmsgBatch {
			n = mmsgBatch
		}
		for i := 0; i < n; i++ {
			idSockaddr(dst, &vec.names[i])
			vec.iovs[i].Base = &bufs[i][0]
			vec.iovs[i].Len = uint64(len(bufs[i]))
			vec.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(vec.names[i]))
			vec.hdrs[i].n = 0
		}
		sent := 0
		for sent < n {
			var k int
			var serr syscall.Errno
			werr := rc.Write(func(fd uintptr) bool {
				k, serr = sendmmsg(fd, vec.hdrs[sent:n], syscall.MSG_DONTWAIT)
				return !(serr == syscall.EAGAIN || serr == syscall.EWOULDBLOCK)
			})
			if werr != nil {
				return werr
			}
			if serr != 0 {
				if serr == syscall.EINTR {
					continue
				}
				// Per-datagram delivery errors (ECONNREFUSED from a
				// dead peer, ENOBUFS under pressure) are loss on a
				// datagram network; drop the batch like Send drops.
				return nil
			}
			sent += k
		}
		bufs = bufs[n:]
	}
	return nil
}

// batchSyscallsAvailable reports whether this platform build carries
// the recvmmsg/sendmmsg fast path.
const batchSyscallsAvailable = true
