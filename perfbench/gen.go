package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/heap"
	"repro/internal/interp"
)

// program is one generated .rvm source together with the answers the
// generator computed for it in Go.
type program struct {
	Name string
	Src  string
	// check verifies the final state of an executed program against the
	// generator's known answers.
	check func(env *interp.Env) error
}

// staticValue reads a static by name from a finished program's heap.
func staticValue(env *interp.Env, name string) (heap.Word, error) {
	h := env.RT.Heap()
	i, ok := h.StaticIndex(name)
	if !ok {
		return 0, fmt.Errorf("no static %q", name)
	}
	return h.GetStatic(i), nil
}

// Shape of the generated monitor-heavy programs.
const (
	syncAccounts  = 16
	syncInitial   = 1000
	syncPerClass  = 4 // threads per priority class
	syncTransfers = 2 // transfers per loop iteration
)

// syncClass is one priority class of sync-program threads. High-priority
// threads run short sections and sleep between iterations, so they arrive
// while a low-priority thread is inside one of its long sections: an
// inversion window the revocation VM resolves by rolling the section back.
type syncClass struct {
	prefix     string
	prio       int
	iters      int
	workLo     int // section work, ticks, uniform in [workLo, workHi)
	workHi     int
	sleepLo    int // pause before each iteration, ticks, uniform in [sleepLo, sleepHi); none when sleepHi is 0
	sleepHi    int
	sleepFirst int // extra pause before the first iteration, ticks, uniform in [sleepFirst, 2*sleepFirst)
}

var syncClasses = []syncClass{
	{prefix: "hi", prio: 8, iters: 100, workLo: 20, workHi: 60, sleepLo: 300, sleepHi: 900, sleepFirst: 400},
	{prefix: "mid", prio: 5, iters: 100, workLo: 80, workHi: 240, sleepLo: 100, sleepHi: 400},
	{prefix: "lo", prio: 2, iters: 60, workLo: 500, workHi: 1200},
}

// syncMove is the one transfer method every thread calls, shaped like the
// transfer of examples/bank: one section debits the source account and
// works (the long part, an inversion window when the caller has low
// priority), a second section credits the destination and counts the
// committed transfer in the caller's counter object. Between the two the
// amount is in flight, so balances add up only once every transfer has
// finished.
const syncMove = `
method move args 5 locals 5 {
    sync 0 {
        load 0
        load 0
        getfield Account.balance
        load 2
        sub
        putfield Account.balance
        load 3
        work
    }
    sync 1 {
        load 1
        load 1
        getfield Account.balance
        load 2
        add
        putfield Account.balance
        load 4
        load 4
        getfield Counter.n
        const 1
        add
        putfield Counter.n
    }
    return
}
`

// genSync generates a bank-transfer program: syncAccounts account objects
// and threads in three priority classes, each looping over syncTransfers
// transfers between generated account pairs. Every section commits exactly
// once, whatever the interleaving and however often it was rolled back, so
// the generator knows each final balance and each thread's transfer count.
func genSync(rng *rand.Rand, name string) program {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: generated bank-transfer program\n", name)
	b.WriteString("static ready = 0\n")
	for a := 0; a < syncAccounts; a++ {
		fmt.Fprintf(&b, "static acct%d = 0\n", a)
	}
	var threads []string
	want := map[string]int{}
	for _, cl := range syncClasses {
		for k := 0; k < syncPerClass; k++ {
			t := fmt.Sprintf("%s%d", cl.prefix, k)
			threads = append(threads, t)
			want[t] = cl.iters * syncTransfers
			fmt.Fprintf(&b, "static count_%s = 0\n", t)
		}
	}
	b.WriteString("\nclass Account {\n    balance\n}\n\nclass Counter {\n    n\n}\n\n")
	b.WriteString("thread init priority 10 run setup\n")
	for _, cl := range syncClasses {
		for k := 0; k < syncPerClass; k++ {
			fmt.Fprintf(&b, "thread %s%d priority %d run run_%s%d\n", cl.prefix, k, cl.prio, cl.prefix, k)
		}
	}

	b.WriteString("\nmethod setup locals 0 {\n")
	for a := 0; a < syncAccounts; a++ {
		fmt.Fprintf(&b, "    newobj Account\n    dup\n    const %d\n    putfield Account.balance\n    putstatic acct%d\n", syncInitial, a)
	}
	b.WriteString("    const 1\n    putstatic ready\n    return\n}\n")
	b.WriteString(syncMove)

	balance := make([]int64, syncAccounts)
	for a := range balance {
		balance[a] = syncInitial
	}
	for _, cl := range syncClasses {
		for k := 0; k < syncPerClass; k++ {
			t := fmt.Sprintf("%s%d", cl.prefix, k)
			// Locals: 0 loop counter, 1 counter object.
			fmt.Fprintf(&b, "\nmethod run_%s locals 2 {\n", t)
			b.WriteString("  spin:\n    getstatic ready\n    ifz spin\n")
			fmt.Fprintf(&b, "    newobj Counter\n    dup\n    store 1\n    putstatic count_%s\n", t)
			if cl.sleepFirst > 0 {
				fmt.Fprintf(&b, "    const %d\n    sleep\n", cl.sleepFirst+rng.Intn(cl.sleepFirst))
			}
			fmt.Fprintf(&b, "    const %d\n    store 0\n  loop:\n    load 0\n    ifz done\n", cl.iters)
			if cl.sleepHi > 0 {
				fmt.Fprintf(&b, "    const %d\n    sleep\n", cl.sleepLo+rng.Intn(cl.sleepHi-cl.sleepLo))
			}
			for x := 0; x < syncTransfers; x++ {
				src := rng.Intn(syncAccounts)
				dst := rng.Intn(syncAccounts - 1)
				if dst >= src {
					dst++
				}
				amount := 1 + rng.Intn(9)
				balance[src] -= int64(amount * cl.iters)
				balance[dst] += int64(amount * cl.iters)
				work := cl.workLo + rng.Intn(cl.workHi-cl.workLo)
				fmt.Fprintf(&b, "    getstatic acct%d\n    getstatic acct%d\n    const %d\n    const %d\n    load 1\n    invoke move\n", src, dst, amount, work)
			}
			b.WriteString("    load 0\n    const 1\n    sub\n    store 0\n    goto loop\n  done:\n    return\n}\n")
		}
	}

	check := func(env *interp.Env) error {
		got := make([]int64, syncAccounts)
		var sum int64
		for a := range got {
			var err error
			if got[a], err = fieldOf(env, fmt.Sprintf("acct%d", a)); err != nil {
				return err
			}
			sum += got[a]
		}
		if want := int64(syncAccounts * syncInitial); sum != want {
			return fmt.Errorf("balances sum to %d, want %d", sum, want)
		}
		for a, w := range balance {
			if got[a] != w {
				return fmt.Errorf("acct%d: balance %d, want %d", a, got[a], w)
			}
		}
		for _, t := range threads {
			n, err := fieldOf(env, "count_"+t)
			if err != nil {
				return err
			}
			if n != int64(want[t]) {
				return fmt.Errorf("thread %s committed %d transfers, want %d", t, n, want[t])
			}
		}
		return nil
	}
	return program{Name: name, Src: b.String(), check: check}
}

// fieldOf reads the first field of the object a static refers to.
func fieldOf(env *interp.Env, static string) (int64, error) {
	ref, err := staticValue(env, static)
	if err != nil {
		return 0, err
	}
	obj, ok := env.Object(ref)
	if !ok {
		return 0, fmt.Errorf("%s: no object %d", static, ref)
	}
	return int64(obj.Get(0)), nil
}

// Shape of the generated arithmetic programs.
const (
	computeThreads = 4
	computeIters   = 2500
	computeArray   = 16
)

// genCompute generates an arithmetic, call-heavy program with no monitors:
// computeThreads threads, each iterating x = step(x, i) where step and mix
// are per-thread methods with generated constants, storing x into a small
// array and finally publishing x plus the array sum in a static. The
// generator evaluates the same recurrence in Go.
func genCompute(rng *rand.Rand, name string) program {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: generated arithmetic program\n", name)
	for t := 0; t < computeThreads; t++ {
		fmt.Fprintf(&b, "static result%d = 0\n", t)
	}
	for t := 0; t < computeThreads; t++ {
		fmt.Fprintf(&b, "thread calc%d priority 5 run main%d\n", t, t)
	}
	want := make([]int64, computeThreads)
	for t := 0; t < computeThreads; t++ {
		a := int64(3 + 2*rng.Intn(500))
		bb := int64(1 + rng.Intn(999))
		m := int64(1_000_003 + rng.Intn(1_000_000_000))
		x0 := int64(rng.Intn(1_000_000))
		n := computeIters - computeIters/8 + rng.Intn(computeIters/4)

		fmt.Fprintf(&b, "\nmethod mix%d args 2 locals 2 returns {\n    load 0\n    const %d\n    mul\n    load 1\n    add\n    const %d\n    mod\n    ireturn\n}\n", t, a, m)
		fmt.Fprintf(&b, "\nmethod step%d args 2 locals 3 returns {\n    load 0\n    load 1\n    invoke mix%d\n    store 2\n    load 2\n    const 3\n    mod\n    ifz again\n    load 2\n    const %d\n    add\n    ireturn\n  again:\n    load 2\n    load 1\n    invoke mix%d\n    ireturn\n}\n", t, t, bb, t)
		fmt.Fprintf(&b, "\nmethod main%d locals 4 {\n    const %d\n    store 0\n    const %d\n    store 1\n    const %d\n    newarr\n    store 2\n", t, x0, n, computeArray)
		fmt.Fprintf(&b, "  loop:\n    load 1\n    ifz done\n    load 0\n    load 1\n    invoke step%d\n    store 0\n    load 2\n    load 1\n    const %d\n    mod\n    load 0\n    astore\n    load 1\n    const 1\n    sub\n    store 1\n    goto loop\n", t, computeArray)
		fmt.Fprintf(&b, "  done:\n    const 0\n    store 3\n    const %d\n    store 1\n  fold:\n    load 1\n    ifz out\n    load 1\n    const 1\n    sub\n    store 1\n    load 3\n    load 2\n    load 1\n    aload\n    add\n    store 3\n    goto fold\n", computeArray)
		fmt.Fprintf(&b, "  out:\n    load 0\n    load 3\n    add\n    putstatic result%d\n    return\n}\n", t)

		mix := func(x, i int64) int64 { return (x*a + i) % m }
		x := x0
		var arr [computeArray]int64
		for i := int64(n); i != 0; i-- {
			y := mix(x, i)
			if y%3 != 0 {
				x = y + bb
			} else {
				x = mix(y, i)
			}
			arr[i%computeArray] = x
		}
		var acc int64
		for _, v := range arr {
			acc += v
		}
		want[t] = x + acc
	}

	check := func(env *interp.Env) error {
		for t, w := range want {
			got, err := staticValue(env, fmt.Sprintf("result%d", t))
			if err != nil {
				return err
			}
			if int64(got) != w {
				return fmt.Errorf("result%d = %d, want %d", t, got, w)
			}
		}
		return nil
	}
	return program{Name: name, Src: b.String(), check: check}
}
