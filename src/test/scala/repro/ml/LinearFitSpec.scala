package repro.ml

import org.scalacheck.{Gen, Prop}
import repro.PropSpec

class LinearFitSpec extends PropSpec {

  private def predict(f: LinearFit.Fit, x: Double): Double = f.intercept + f.slope * x

  /** The coefficient of determination of `f` on the points: 1.0 for a
    * perfect fit or a constant y, 0.0 when the fit explains nothing.
    */
  private def r2(f: LinearFit.Fit, xs: IndexedSeq[Double], ys: IndexedSeq[Double]): Double = {
    val yMean = ys.sum / ys.length
    val syy   = ys.map(y => (y - yMean) * (y - yMean)).sum
    if (syy == 0.0) 1.0
    else 1.0 - xs.zip(ys).map { case (x, y) => (y - predict(f, x)) * (y - predict(f, x)) }.sum / syy
  }

  test("recovers an exact linear relationship") {
    val xs = IndexedSeq(1.0, 2.0, 3.0, 4.0)
    val ys = xs.map(x => 3.0 + 2.0 * x)
    val f  = LinearFit.fit(xs, ys)
    assert(math.abs(f.intercept - 3.0) < 1e-9)
    assert(math.abs(f.slope - 2.0) < 1e-9)
    assert(math.abs(r2(f, xs, ys) - 1.0) < 1e-9)
  }

  test("recovers a negative slope") {
    val xs = IndexedSeq(0.0, 1.0, 2.0)
    val ys = IndexedSeq(5.0, 3.0, 1.0)
    val f  = LinearFit.fit(xs, ys)
    assert(math.abs(f.slope + 2.0) < 1e-9)
    assert(math.abs(f.intercept - 5.0) < 1e-9)
  }

  test("single point degenerates to mean with zero slope") {
    val f = LinearFit.fit(IndexedSeq(4.0), IndexedSeq(7.5))
    assert(f.slope == 0.0)
    assert(f.intercept == 7.5)
  }

  test("zero x-variance degenerates to mean of y") {
    val f = LinearFit.fit(IndexedSeq(2.0, 2.0, 2.0), IndexedSeq(1.0, 2.0, 3.0))
    assert(f.slope == 0.0)
    assert(math.abs(f.intercept - 2.0) < 1e-9)
  }

  test("constant y gives r2 = 1 (perfectly explained)") {
    val xs = IndexedSeq(1.0, 2.0, 3.0)
    val ys = IndexedSeq(4.0, 4.0, 4.0)
    val f  = LinearFit.fit(xs, ys)
    assert(r2(f, xs, ys) == 1.0)
    assert(f.slope == 0.0)
  }

  test("noisy data gives r2 strictly below 1") {
    val xs = (1 to 20).map(_.toDouble)
    val ys = xs.map(x => 2.0 * x + (if (x.toInt % 2 == 0) 1.0 else -1.0))
    val f  = LinearFit.fit(xs, ys)
    assert(r2(f, xs, ys) < 1.0 && r2(f, xs, ys) > 0.9)
  }

  test("predict applies intercept + slope * x") {
    val f = LinearFit.Fit(intercept = 1.0, slope = -0.5)
    assert(predict(f, 4.0) == -1.0)
  }

  test("mismatched input lengths are rejected") {
    intercept[IllegalArgumentException] {
      LinearFit.fit(IndexedSeq(1.0), IndexedSeq(1.0, 2.0))
    }
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException] {
      LinearFit.fit(IndexedSeq.empty, IndexedSeq.empty)
    }
  }

  test("property: exact recovery of random linear functions") {
    val gen = for {
      a  <- Gen.choose(-50.0, 50.0)
      b  <- Gen.choose(-50.0, 50.0)
      xs <- Gen.listOfN(10, Gen.choose(-100.0, 100.0)).map(_.distinct)
      if xs.size >= 2
    } yield (a, b, xs.toIndexedSeq)
    checkProp(Prop.forAll(gen) { case (a, b, xs) =>
      val f = LinearFit.fit(xs, xs.map(x => a + b * x))
      math.abs(f.intercept - a) < 1e-6 * (1 + math.abs(a)) &&
        math.abs(f.slope - b) < 1e-6 * (1 + math.abs(b))
    })
  }

  test("property: residuals of the fit sum to ~zero") {
    val gen = Gen.listOfN(12, Gen.zip(Gen.choose(-10.0, 10.0), Gen.choose(-10.0, 10.0)))
    checkProp(Prop.forAll(gen) { pts =>
      pts.size < 2 || {
        val xs = pts.map(_._1).toIndexedSeq
        val ys = pts.map(_._2).toIndexedSeq
        val f  = LinearFit.fit(xs, ys)
        val resid = xs.zip(ys).map { case (x, y) => y - predict(f, x) }.sum
        math.abs(resid) < 1e-6 * (1 + ys.map(math.abs).sum)
      }
    })
  }
}
