package data

// FNVOffset is the state the module's unseeded FNV64a hashes start from. It
// is not FNV-1a's published offset basis (14695981039346656037): sampled rows,
// HASHBUCKET and AddRowTag values, Bloom filters and job random streams were
// all derived from this one, so it stays.
const FNVOffset uint64 = 1469598103934665603

// FNV64a folds b into the running hash h, byte by byte, by 64-bit FNV-1a.
func FNV64a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}
