// Fixture for the goroutine rule: the package path ends in "sim" so
// spawns are in scope, and no waiver keeps one. Every spawn fires,
// however it is annotated.
package sim

func work() {}

// Unwaived proves spawns are forbidden by default.
func Unwaived() {
	go work() // want "goroutine spawned in simulation package"
}

// WrongCategory proves no waiver category mutes a spawn, trailing or
// on the line above; each such waiver is itself stale.
func WrongCategory() {
	go work() //litegpu:ordered-ok not the right directive // want "goroutine spawned in simulation package" "stale //litegpu:ordered-ok waiver"
	//litegpu:floatcmp-ok not the right directive either // want "stale //litegpu:floatcmp-ok waiver"
	go work() // want "goroutine spawned in simulation package"
}
