package durable

import (
	"bytes"
	"fmt"
	"testing"
)

// TestAEEntryHashGolden pins the leaf hash: digests cross the wire, so
// a change of function is a protocol change and must show up here.
func TestAEEntryHashGolden(t *testing.T) {
	for _, tc := range []struct {
		key  string
		ver  uint64
		val  []byte
		want uint64
	}{
		{"", 0, nil, 0xf8bb92c91b3f5cc0},
		{"k", 1, []byte("v"), 0x1d764d5585dea41d},
		{"k00001234", 5<<20 | 9, []byte("12345678"), 0x494fac0f23492ce3},
		{"k00001234", 5<<20 | 9, []byte("123456789abc"), 0xfca45c826b5dcd0a},
		{"ae-key-7", 1 << 40, bytes.Repeat([]byte{0xa5}, 1024), 0xd6e26d388fba1ce6},
	} {
		if got := aeEntryHash(fnvString(fnvOffset, tc.key), tc.ver, tc.val); got != tc.want {
			t.Errorf("aeEntryHash(%q, %#x, %d bytes) = %#x, want %#x", tc.key, tc.ver, len(tc.val), got, tc.want)
		}
	}
}

// TestAETreeRootGolden pins the bucket layout and the root fold: a
// root crosses the wire on every anti-entropy epoch and a leaf vector
// in every probe reply, so peers must agree on both bit for bit. The
// values were computed by the two-level tree this digest replaced.
func TestAETreeRootGolden(t *testing.T) {
	for key, want := range map[string]int{"golden-0": 24, "k": 54, "": 12} {
		if got := AEBucket(key); got != want {
			t.Errorf("AEBucket(%q) = %d, want %d", key, got, want)
		}
	}
	var tree AETree
	for i := 0; i < 100; i++ {
		tree.Apply(fmt.Sprintf("golden-%d", i), uint64(i)<<20|7, []byte(fmt.Sprintf("value-%d", i*i)))
	}
	if got := tree.Root(); got != 0x1a8ef098b5e38736 {
		t.Errorf("root of the 100-record image = %#x, want 0x1a8ef098b5e38736", got)
	}
}

// TestAETreeApplyTwiceCancels: a leaf is the XOR of its records, so
// applying the same record again removes it — the property an
// overwrite (old out, new in) rests on.
func TestAETreeApplyTwiceCancels(t *testing.T) {
	var tree, empty AETree
	for i := 0; i < 300; i++ {
		tree.Apply(fmt.Sprintf("key-%d", i), uint64(i+1), bytes.Repeat([]byte{byte(i)}, i))
	}
	if tree == empty {
		t.Fatal("300 records left the tree empty")
	}
	for i := 299; i >= 0; i-- {
		tree.Apply(fmt.Sprintf("key-%d", i), uint64(i+1), bytes.Repeat([]byte{byte(i)}, i))
	}
	if tree != empty {
		t.Fatal("applying every record twice did not return to the empty tree")
	}
}

// TestAELeafSeesEveryValueByte: same key and version, a value that
// differs in any one byte — in a full word or in the tail — must land
// on a different leaf, or anti-entropy would call divergent copies
// equal.
func TestAELeafSeesEveryValueByte(t *testing.T) {
	kh := fnvString(fnvOffset, "k00001234")
	for _, n := range []int{1, 7, 8, 9, 64, 1023, 1024} {
		val := bytes.Repeat([]byte{0x5a}, n)
		base := aeEntryHash(kh, 77, val)
		for i := 0; i < n; i++ {
			val[i] ^= 1 << (i % 8)
			if aeEntryHash(kh, 77, val) == base {
				t.Fatalf("%d-byte value: flipping a bit of byte %d left the leaf unchanged", n, i)
			}
			val[i] ^= 1 << (i % 8)
		}
		if aeEntryHash(kh, 77, append(val, 0)) == base {
			t.Fatalf("%d-byte value: appending a zero byte left the leaf unchanged", n)
		}
		if aeEntryHash(kh, 78, val) == base {
			t.Fatalf("%d-byte value: a different version left the leaf unchanged", n)
		}
	}
}

// BenchmarkAETreeApply prices the digest update every put pays twice
// on an overwrite (old record out, new record in).
func BenchmarkAETreeApply(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64B", 64}, {"1KiB", 1024}} {
		b.Run(size.name, func(b *testing.B) {
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%08d", i)
			}
			val := make([]byte, size.bytes)
			var tree AETree
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.Apply(keys[i%len(keys)], uint64(i), val)
			}
		})
	}
}
