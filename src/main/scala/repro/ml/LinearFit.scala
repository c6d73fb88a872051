package repro.ml

/** Ordinary-least-squares fit of a simple linear model `y = intercept + slope * x`.
  *
  * Both PPM fitters reduce to this: the power-law model is linear in
  * (log n, log t) space and the Amdahl model is linear in (1/n, t) space
  * (paper §3.4). Kept dependency-free so it can run inside the optimizer
  * rule and in tight fitting loops (paper reports ~0.3 ms per point).
  */
object LinearFit {

  /** Result of a simple OLS fit. */
  final case class Fit(intercept: Double, slope: Double)

  /** Fit `y = intercept + slope * x` by least squares.
    *
    * Requires at least one point; with a single point (or zero x-variance)
    * the slope is 0 and the intercept is the mean of y, which is the
    * correct degenerate behaviour for PPM fitting on a saturated region.
    */
  def fit(xs: IndexedSeq[Double], ys: IndexedSeq[Double]): Fit = {
    require(xs.nonEmpty && xs.length == ys.length, s"bad input sizes: ${xs.length} vs ${ys.length}")
    val n     = xs.length.toDouble
    val xMean = xs.sum / n
    val yMean = ys.sum / n
    var sxx = 0.0; var sxy = 0.0
    var i = 0
    while (i < xs.length) {
      val dx = xs(i) - xMean
      val dy = ys(i) - yMean
      sxx += dx * dx; sxy += dx * dy
      i += 1
    }
    val slope     = if (sxx == 0.0) 0.0 else sxy / sxx
    val intercept = yMean - slope * xMean
    Fit(intercept, slope)
  }
}
