package durable

import "encoding/binary"

// AETop is the digest's width: a key's record lands in one of AETop
// buckets. The leaves travel in transfer probe replies, where a
// session plan compares them bucket by bucket; the 8-byte root rides
// the stats broadcast on anti-entropy epochs. A single divergent key
// dirties one bucket holding ~1/64th of the partition's keys.
const AETop = 64

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

// AEBucket maps a key to its bucket. Deliberately NOT ring.HashString:
// partition membership is already a function of the ring hash, and
// deriving buckets from the same value would correlate bucket occupancy
// with partition assignment instead of spreading a partition's keys
// uniformly across its own digest.
func AEBucket(key string) int {
	return bucketOf(fnvString(fnvOffset, key))
}

// bucketOf maps a key hash to its bucket: (hash mod 4096) / 64, the
// layout digests have always used (4096 was a sub-bucket count), so
// peers of every version agree on which bucket a key dirties.
func bucketOf(keyHash uint64) int {
	return int(keyHash % 4096 / AETop)
}

// aeEntryHash digests one (key, version, value) record, continuing from
// keyHash = fnvString(fnvOffset, key) — the same value AEBucket buckets
// by, so Apply hashes the key once. The version sits between key and
// value with a fixed width, so no two distinct records can collide by
// concatenation ambiguity.
func aeEntryHash(keyHash, ver uint64, val []byte) uint64 {
	return mixBytes(mixWord(keyHash, ver), val)
}

// AETree is one partition's anti-entropy digest: AETop leaves, each
// holding the XOR of its bucket's record hashes. XOR makes the leaves
// order-independent and incrementally maintainable — applying the same
// record twice removes it, so an update is Apply(old) followed by
// Apply(new), O(1) per write. Every Partition keeps one live,
// maintained by its single apply path.
type AETree struct {
	top [AETop]uint64
}

// Apply XORs one record into its bucket: call once to add a record,
// again with identical arguments to remove it.
func (t *AETree) Apply(key string, ver uint64, val []byte) {
	kh := fnvString(fnvOffset, key)
	t.top[bucketOf(kh)] ^= aeEntryHash(kh, ver, val)
}

// Leaves returns the leaf vector (a copy; the transfer probe's wire
// payload).
func (t *AETree) Leaves() []uint64 {
	out := make([]uint64, AETop)
	copy(out, t.top[:])
	return out
}

// Root folds the leaves pairwise up to the 8-byte root. The fold is
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
