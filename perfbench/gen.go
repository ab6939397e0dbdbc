package main

import "math/rand"

// opKind classifies one generated transaction.
type opKind uint8

const (
	// opTransfer withdraws amt from account a and deposits it into b.
	opTransfer opKind = iota
	// opDeposit deposits amt into account a.
	opDeposit
	// opRead is a read-only transaction over accounts a and, when b >= 0,
	// b (a balance check, or a two-account audit).
	opRead
	// opAudit is a read-only transaction summing every account.
	opAudit
)

// op is one generated transaction. The program sees only these values.
type op struct {
	kind opKind
	a, b int
	amt  int64
}

// update reports whether the transaction writes.
func (o op) update() bool { return o.kind == opTransfer || o.kind == opDeposit }

// mix builds one caller's operation stream from its own generator over n
// accounts. Each call of the returned function yields the next operation.
type mix func(r *rand.Rand, n int) func() op

// callerRand is the generator of one closed-loop caller: a pure function
// of the workload seed and the caller index, so a seed fixes every
// caller's operation sequence.
func callerRand(seed int64, caller int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(caller)*7_919 + 1))
}

// amount draws a transfer or deposit amount, 1..10. Accounts are seeded
// far above what a run can withdraw, so no withdrawal is ever refused.
func amount(r *rand.Rand) int64 { return 1 + r.Int63n(10) }

// other draws an account different from a with pick.
func other(a int, pick func() int) int {
	for {
		if b := pick(); b != a {
			return b
		}
	}
}

// zipfPick returns a Zipf(s=1.2) draw over n accounts: account 0 is the
// hottest.
func zipfPick(r *rand.Rand, n int) func() int {
	z := rand.NewZipf(r, 1.2, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

func uniformPick(r *rand.Rand, n int) func() int {
	return func() int { return r.Intn(n) }
}

// svcMix: 80% two-op transfers between Zipf-chosen accounts, 20% read-only
// balance checks of a Zipf-chosen account.
func svcMix(r *rand.Rand, n int) func() op {
	z := zipfPick(r, n)
	return func() op {
		if r.Intn(100) < 80 {
			a := z()
			return op{kind: opTransfer, a: a, b: other(a, z), amt: amount(r)}
		}
		return op{kind: opRead, a: z(), b: -1}
	}
}

// durableMix: half uniform-random transfers, half read-only balance
// checks. Under dynamic atomicity a read-only transaction logs and waits
// for the group-commit fsync like a transfer, so the two halves have the
// same latency profile, and an even split gives both tails as many
// samples.
func durableMix(r *rand.Rand, n int) func() op {
	u := uniformPick(r, n)
	return func() op {
		if r.Intn(100) < 50 {
			a := u()
			return op{kind: opTransfer, a: a, b: other(a, u), amt: amount(r)}
		}
		return op{kind: opRead, a: u(), b: -1}
	}
}

// auditMix: 90% transfers out of a Zipf-hot account into a uniform other
// one, 10% read-only audits summing every account (§4.3.3).
func auditMix(r *rand.Rand, n int) func() op {
	z, u := zipfPick(r, n), uniformPick(r, n)
	return func() op {
		if r.Intn(100) < 90 {
			a := z()
			return op{kind: opTransfer, a: a, b: other(a, u), amt: amount(r)}
		}
		return op{kind: opAudit}
	}
}

// clusterMix: 60% commuting deposits, 20% non-commuting transfers, 20%
// read-any two-account audits, all uniform.
func clusterMix(r *rand.Rand, n int) func() op {
	u := uniformPick(r, n)
	return func() op {
		switch p := r.Intn(100); {
		case p < 60:
			return op{kind: opDeposit, a: u(), amt: amount(r)}
		case p < 80:
			a := u()
			return op{kind: opTransfer, a: a, b: other(a, u), amt: amount(r)}
		default:
			a := u()
			return op{kind: opRead, a: a, b: other(a, u)}
		}
	}
}
