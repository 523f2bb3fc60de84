// Package discovery implements the SMC discovery service (§II-B): it
// searches for new devices to integrate into the cell, maintains
// connectivity to them while they are within range, manages group
// membership (detection, authenticated admission, removal), masks
// transient disconnections, and informs the SMC of arrivals and
// departures, which the bus announces as "New Member" and "Purge
// Member" events.
//
// The discovery protocol deliberately does not use the event bus for
// its own traffic — it works beside the bus, separating the concern of
// group membership from the concern of passing events between services.
package discovery

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"

	"github.com/amuse/smc/internal/ident"
)

// authDigestLen is the truncated HMAC length carried in join requests.
const authDigestLen = 16

// AuthDigest computes the admission credential: a truncated
// HMAC-SHA256 over the joining service's ID and the cell name under
// the cell's shared secret. The paper leaves authentication
// "specific to the application" (§II-B); a shared-secret MAC is the
// simplest scheme that actually gates admission.
func AuthDigest(secret []byte, id ident.ID, cell string) []byte {
	mac := hmac.New(sha256.New, secret)
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], uint64(id))
	mac.Write(idb[:])
	mac.Write([]byte(cell))
	return mac.Sum(nil)[:authDigestLen]
}

// verifyAuth checks a credential in constant time.
func verifyAuth(secret []byte, id ident.ID, cell string, digest []byte) bool {
	want := AuthDigest(secret, id, cell)
	return hmac.Equal(want, digest)
}
