package chaos

import "math/rand"

// CorruptVariants derives n deterministic damaged variants of a valid
// wire encoding, for seeding fuzz corpora: the chaotic shapes a flaky
// link delivers (bit flips, truncations, inflated length fields, zeroed
// runs, duplicated tails), reproducible from the seed. The bgp and mrt
// fuzz targets share these so both codecs chew on the same breakage the
// live path is hardened against.
func CorruptVariants(seed int64, data []byte, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		v := append([]byte(nil), data...)
		switch rng.Intn(5) {
		case 0: // bit flips
			for j, flips := 0, 1+rng.Intn(3); j < flips && len(v) > 0; j++ {
				v[rng.Intn(len(v))] ^= byte(1 << rng.Intn(8))
			}
		case 1: // truncation
			if len(v) > 0 {
				v = v[:rng.Intn(len(v))]
			}
		case 2: // inflated 16-bit length field
			if len(v) >= 2 {
				off := rng.Intn(len(v) - 1)
				v[off], v[off+1] = 0xff, byte(rng.Intn(256))
			}
		case 3: // zeroed run
			if len(v) > 0 {
				off := rng.Intn(len(v))
				end := off + 1 + rng.Intn(8)
				if end > len(v) {
					end = len(v)
				}
				for j := off; j < end; j++ {
					v[j] = 0
				}
			}
		case 4: // duplicated tail
			if len(v) > 0 {
				v = append(v, v[len(v)/2:]...)
			}
		}
		out = append(out, v)
	}
	return out
}
