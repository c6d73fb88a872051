package repro.core

import org.scalacheck.{Gen, Prop}
import repro.PropSpec

class ConfigSelectorSpec extends PropSpec {
  import ConfigSelector._

  // ----- interpolation ----------------------------------------------------

  test("interpolation covers every integer between grid endpoints") {
    val interp = interpolate(IndexedSeq(1 -> 100.0, 3 -> 50.0, 8 -> 20.0))
    assert(interp.map(_._1) == (1 to 8))
  }

  test("interpolation is exact at the sampled points") {
    val pts    = IndexedSeq(1 -> 100.0, 3 -> 50.0, 8 -> 20.0, 16 -> 10.0)
    val interp = interpolate(pts).toMap
    pts.foreach { case (n, t) => assert(interp(n) == t) }
  }

  test("interpolation is linear between points") {
    val interp = interpolate(IndexedSeq(1 -> 100.0, 5 -> 20.0)).toMap
    assert(math.abs(interp(3) - 60.0) < 1e-9)
    assert(math.abs(interp(2) - 80.0) < 1e-9)
  }

  test("interpolating unsorted input sorts it first") {
    val interp = interpolate(IndexedSeq(8 -> 20.0, 1 -> 100.0)).toMap
    assert(interp(1) == 100.0 && interp(8) == 20.0)
  }

  test("single-point interpolation returns the point") {
    assert(interpolate(IndexedSeq(5 -> 42.0)) == IndexedSeq(5 -> 42.0))
  }

  // ----- limited slowdown -------------------------------------------------

  private val amdahlCurve = (1 to 48).map(n => n -> (10.0 + 100.0 / n))

  test("H=1 on a strictly decreasing curve selects the max n") {
    assert(limitedSlowdown(amdahlCurve, 1.0) == 48)
    // A curve of NaN times has no t_min, and selects the max n too.
    assert(limitedSlowdown(amdahlCurve.map { case (n, _) => n -> Double.NaN }, 1.0) == 48)
  }

  test("H>1 selects the smallest n within the slowdown bound") {
    // t(n) = 10 + 100/n, t_min = t(48) ≈ 12.083; H=1.5 → threshold ≈ 18.125
    // → need 100/n <= 8.125 → n >= 12.3 → n = 13.
    assert(limitedSlowdown(amdahlCurve, 1.5) == 13)
    // A NaN time is neither t_min nor selected; the rest selects as before.
    assert(limitedSlowdown(amdahlCurve.updated(0, 1 -> Double.NaN), 1.5) == 13)
  }

  test("very large H selects n = 1") {
    assert(limitedSlowdown(amdahlCurve, 100.0) == 1)
  }

  test("H=1 on a saturating curve selects the first n reaching t_min") {
    val curve = IndexedSeq(1 -> 100.0, 2 -> 50.0, 4 -> 25.0, 8 -> 25.0, 16 -> 25.0)
    assert(limitedSlowdown(curve, 1.0) == 4)
  }

  test("H below 1 is rejected") {
    intercept[IllegalArgumentException] { limitedSlowdown(amdahlCurve, 0.9) }
  }

  test("property: selected slowdown never exceeds H") {
    val gen = for {
      s <- Gen.choose(1.0, 50.0)
      p <- Gen.choose(10.0, 500.0)
      h <- Gen.choose(1.0, 3.0)
    } yield (s, p, h)
    checkProp(Prop.forAll(gen) { case (s, p, h) =>
      val curve = (1 to 48).map(n => n -> (s + p / n))
      val sel   = limitedSlowdown(curve, h)
      val tMin  = curve.map(_._2).min
      (s + p / sel) / tMin <= h + 1e-9
    })
  }

  test("property: larger H never selects more executors") {
    val gen = Gen.choose(1.0, 40.0).flatMap(s => Gen.choose(20.0, 400.0).map(p => (s, p)))
    checkProp(Prop.forAll(gen) { case (s, p) =>
      val curve = (1 to 48).map(n => n -> (s + p / n))
      val sels  = Seq(1.0, 1.05, 1.2, 1.5, 2.0).map(limitedSlowdown(curve, _))
      sels.zip(sels.tail).forall { case (a, b) => b <= a }
    })
  }

  // ----- elbow point ------------------------------------------------------

  test("AE_AL curves on [1,48] always elbow at L = 7 (paper §5.3 analytic result)") {
    // For t = s + p/n the normalized curve is independent of s and p, and the
    // unit-slope crossover lands at n = 7 — the paper observes AE_AL always
    // selecting 7.
    for (s <- Seq(0.0, 5.0, 50.0); p <- Seq(10.0, 100.0, 1000.0)) {
      val curve = (1 to 48).map(n => n -> (s + p / n))
      assert(elbow(curve) == 7, s"s=$s p=$p")
    }
  }

  test("power-law curves elbow later for shallower exponents") {
    def lOf(a: Double): Int = elbow((1 to 48).map(n => n -> math.max(100.0 * math.pow(n, a), 1.0)))
    assert(lOf(-1.2) <= lOf(-0.4))
  }

  test("flat curve elbows at the smallest n") {
    assert(elbow((1 to 48).map(n => n -> 10.0)) == 1)
  }

  test("linear (unit-normalized-slope) curve elbows immediately") {
    // Every normalized slope is exactly 1, so the crossover condition holds
    // at the first interior point.
    val l = elbow((1 to 48).map(n => n -> (100.0 - 2.0 * n)))
    assert(l == 2)
  }

  test("elbow needs at least two points") {
    intercept[IllegalArgumentException] { elbow(IndexedSeq(1 -> 5.0)) }
  }

  // ----- core factorization (§3.3) ---------------------------------------

  test("factorization prefers zero stranded cores") {
    // Node: 8 cores, 64 GB; executors of 28 GB → at most 2 per node.
    val f = factorizeCores(k = 16, nodeCores = 8, nodeMemoryGb = 64, executorMemoryGb = 28).get
    assert(f.strandedCoresPerNode == 0)
    assert(f.coresPerExecutor * f.executors == 16)
    assert(f.coresPerExecutor >= 4) // 28GB×(8/ec) ≤ 64GB forces ec ≥ 4
  }

  test("factorization respects the memory constraint") {
    val f = factorizeCores(k = 8, nodeCores = 8, nodeMemoryGb = 64, executorMemoryGb = 28).get
    val executorsPerNode = 8 / f.coresPerExecutor
    assert(28.0 * executorsPerNode <= 64.0)
  }

  test("factorization with light memory pressure allows small executors") {
    val f = factorizeCores(k = 8, nodeCores = 8, nodeMemoryGb = 64, executorMemoryGb = 4).get
    // All e_c in {1,2,4,8} strand nothing; tie broken toward smallest e_c.
    assert(f.strandedCoresPerNode == 0)
    assert(f.coresPerExecutor == 1)
  }

  test("factorization returns None when nothing is feasible") {
    // k = 11 is prime, so with e_c ≤ 8 only e_c = 1 divides it, and 60 GB
    // executors rule out 8 × 1-core executors per 64 GB node.
    assert(factorizeCores(k = 11, nodeCores = 8, nodeMemoryGb = 64, executorMemoryGb = 60).isEmpty)
  }

  // ----- strategies -------------------------------------------------------

  test("strategy ADT dispatches to the right selector") {
    val curve = (1 to 48).map(n => n -> (10.0 + 100.0 / n))
    assert(LimitedSlowdown(1.5).select(curve) == limitedSlowdown(curve, 1.5))
    assert(ElbowPoint.select(curve) == elbow(curve))
  }
}
