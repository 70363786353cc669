package testonly

// A test-file reference does not keep OnlyTests alive, and a declaration
// in a test file is never itself a finding.
func testHelper() int { return OnlyTests() }
