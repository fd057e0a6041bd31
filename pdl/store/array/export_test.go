package array

// FailSync makes every Rebuild's sync of the rebuilt disk fail with err
// until the returned restore is called; for the package's external tests.
func FailSync(err error) (restore func()) {
	old := syncResult
	syncResult = func(error) error { return err }
	return func() { syncResult = old }
}
