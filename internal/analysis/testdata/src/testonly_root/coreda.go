// Root-package fixture for testonly: the module's public API, checked as
// import path "coreda". Its aliases make the aliased types' exported
// methods public.
package coreda

import "coreda/internal/testonly"

// Widget is a public alias.
type Widget = testonly.Widget

// Start calls the fixture's production entry point.
func Start() error { return testonly.Run() }
