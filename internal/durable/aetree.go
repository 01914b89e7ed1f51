package durable

import "encoding/binary"

// Tree shape: AETop top-level buckets of AEFanout sub-buckets each.
// The top digest (64 × 8 bytes) rides the stats broadcast; sub-leaf
// vectors only move for divergent top buckets, and keylists only for
// divergent sub-buckets, so payloads shrink geometrically with each
// round. With a uniform key hash a single divergent key dirties one
// sub-bucket holding ~1/4096th of the partition's keys.
const (
	AETop      = 64
	AEFanout   = 64
	aeSubCount = AETop * AEFanout
)

// fnv-1a 64 parameters, written out because the tree hashes millions
// of entries in the bench path and the stdlib hash.Hash64 interface
// would allocate per entry.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mixPrime is the odd multiplier of the word-at-a-time record mix
// (2^64 / golden ratio).
const mixPrime = 0x9E3779B97F4A7C15

// mixWord folds one 64-bit word into h: xor, multiply, and one
// shift-xor so the product's high bits reach the low ones. Each step
// is a bijection of h, so two inputs differing in one word never meet.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * mixPrime
	return h ^ h>>32
}

// mixBytes folds b into h eight bytes a step (little-endian words),
// then the tail a byte at a time as FNV-1a does. It is a fixed,
// seedless function: the digests built from it cross the wire, so
// every process must compute the same value.
func mixBytes(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = mixWord(h, binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// AESub maps a key to its sub-bucket. Deliberately NOT ring.HashString:
// partition membership is already a function of the ring hash, and
// deriving buckets from the same value would correlate bucket occupancy
// with partition assignment instead of spreading a partition's keys
// uniformly across its own tree.
func AESub(key string) int {
	return int(fnvString(fnvOffset, key) % aeSubCount)
}

// AEBucket maps a key to its top-level bucket (its sub-bucket's group).
func AEBucket(key string) int {
	return AESub(key) / AEFanout
}

// aeEntryHash digests one (key, version, value) record, continuing from
// keyHash = fnvString(fnvOffset, key) — the same value AESub buckets
// by, so Apply hashes the key once. The version sits between key and
// value with a fixed width, so no two distinct records can collide by
// concatenation ambiguity.
func aeEntryHash(keyHash, ver uint64, val []byte) uint64 {
	return mixBytes(mixWord(keyHash, ver), val)
}

// AETree is one partition's anti-entropy digest: aeSubCount sub-bucket
// leaves, each holding the XOR of its entries' record hashes, plus the
// AETop top-level buckets maintained as the XOR of their sub-leaves.
// XOR makes every level order-independent and incrementally
// maintainable — applying the same record twice removes it, so an
// update is Apply(old) followed by Apply(new), O(1) per write. Every
// Partition keeps one live, maintained by its single apply path.
type AETree struct {
	sub [aeSubCount]uint64
	top [AETop]uint64
}

// Apply XORs one record into its sub-bucket and the covering top
// bucket: call once to add a record, again with identical arguments to
// remove it.
func (t *AETree) Apply(key string, ver uint64, val []byte) {
	kh := fnvString(fnvOffset, key)
	h := aeEntryHash(kh, ver, val)
	s := int(kh % aeSubCount)
	t.sub[s] ^= h
	t.top[s/AEFanout] ^= h
}

// Leaves returns the top-level hash vector (a copy; the piggybacked
// wire payload).
func (t *AETree) Leaves() []uint64 {
	out := make([]uint64, AETop)
	copy(out, t.top[:])
	return out
}

// SubLeaves returns the sub-leaf vector of one top-level bucket (a
// copy; the KindAEDigest request payload).
func (t *AETree) SubLeaves(top int) []uint64 {
	out := make([]uint64, AEFanout)
	copy(out, t.sub[top*AEFanout:(top+1)*AEFanout])
	return out
}

// Root folds the top leaves pairwise up to the 8-byte root. The fold is
// order-sensitive (unlike the leaves), so two trees agreeing on the
// root agree on the whole top vector with hash-level confidence.
func (t *AETree) Root() uint64 {
	var lvl [AETop]uint64
	copy(lvl[:], t.top[:])
	for n := AETop; n > 1; n /= 2 {
		for i := 0; i < n/2; i++ {
			lvl[i] = mixWord(mixWord(fnvOffset, lvl[2*i]), lvl[2*i+1])
		}
	}
	return lvl[0]
}
