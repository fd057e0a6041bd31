package store

// HelperChunks exposes, to the package's external tests only, how many
// chunks of stripes rebuild helpers (every worker but the first) have
// claimed over the store's life.
func (s *Store) HelperChunks() int64 { return s.helperChunks.Load() }

// RebuildChunk is the number of consecutive stripes per claim.
const RebuildChunk = rebuildChunk
