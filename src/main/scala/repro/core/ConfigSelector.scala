package repro.core

/** Configuration-selection strategies over a PPM curve (paper §4.4, §5.3).
  *
  * All strategies operate on run-time curves sampled (or predicted) on an
  * integer grid of executor counts; the paper piecewise-linearly interpolates
  * the measured grid {1,3,8,16,32,48} to all `n ∈ [1,48]` before selecting,
  * which [[ConfigSelector.interpolate]] provides.
  */
object ConfigSelector {

  /** The candidate executor counts `n ∈ [1,48]`, the paper's pool range:
    * the rule and the selection experiments both choose from it.
    */
  val FullRange: IndexedSeq[Int] = (1 to 48).toIndexedSeq

  /** Piecewise-linear interpolation of `(n, t)` samples onto every integer
    * `n` in `[min, max]` of the sampled grid (§5.3).
    */
  def interpolate(points: IndexedSeq[(Int, Double)]): IndexedSeq[(Int, Double)] = {
    require(points.length >= 1, "need at least one sample")
    val sorted = points.sortBy(_._1)
    if (sorted.length == 1) return sorted
    (sorted.head._1 to sorted.last._1).map { n =>
      val hiIdx = sorted.indexWhere(_._1 >= n)
      val (n1, t1) = sorted(math.max(hiIdx - 1, 0))
      val (n2, t2) = sorted(hiIdx)
      val t = if (n2 == n1) t2 else t1 + (t2 - t1) * (n - n1).toDouble / (n2 - n1)
      n -> t
    }
  }

  /** Limited-slowdown selection (§5.3): the smallest `n` whose time is within
    * a factor `h >= 1` of the curve's minimum time, i.e.
    * `t(n) / t_min <= h`.
    *
    * The curve comes in ascending `n`, as [[interpolate]] and `Ppm.curve`
    * over an ascending grid return it. A NaN time is never `t_min` and
    * never selected; if no time qualifies (every time NaN), the largest `n`
    * is selected.
    */
  def limitedSlowdown(curve: IndexedSeq[(Int, Double)], h: Double): Int = {
    require(h >= 1.0, s"slowdown threshold must be >= 1, got $h")
    require(curve.nonEmpty, "empty curve")
    var tMin = Double.NaN
    var i    = 0
    while (i < curve.length) {
      val t = curve(i)._2
      if (tMin.isNaN || t < tMin) tMin = t
      i += 1
    }
    i = 0
    while (i < curve.length && !(curve(i)._2 <= h * tMin)) i += 1
    if (i < curve.length) curve(i)._1 else curve.last._1
  }

  /** Elbow-point selection (§5.3, Eqs. 7–9).
    *
    * Both axes are range-normalized to [0,1]; the slope of the normalized
    * curve between consecutive integer points is compared against unit slope.
    * `L` is the smallest `n` with `slope(u(n)) >= 1` and `slope(u(n+1)) <= 1`
    * — the point where the rate of improvement drops below the rate of
    * resource growth. Degenerate flat curves elbow at the smallest `n`
    * (any added executor is already wasted).
    */
  def elbow(curve: IndexedSeq[(Int, Double)]): Int = {
    require(curve.length >= 2, s"need >= 2 points for an elbow, got ${curve.length}")
    val sorted = curve.sortBy(_._1)
    val ns     = sorted.map(_._1)
    val ts     = sorted.map(_._2)
    val (nMin, nMax) = (ns.head, ns.last)
    val (tMin, tMax) = (ts.min, ts.max)
    if (tMax - tMin <= 1e-12) return nMin
    def u(n: Int)     = (n - nMin).toDouble / (nMax - nMin)
    def v(t: Double)  = (t - tMin) / (tMax - tMin)
    // slope at grid index i (between points i-1 and i), per Eq. 9.
    def slope(i: Int) = (v(ts(i - 1)) - v(ts(i))) / (u(ns(i)) - u(ns(i - 1)))
    val crossing = (1 until sorted.length - 1).collectFirst {
      case i if slope(i) >= 1.0 && slope(i + 1) <= 1.0 => ns(i)
    }
    crossing.getOrElse {
      // No crossover: either the whole curve is steeper than unit slope
      // (elbow at the far end) or shallower everywhere (elbow at the start).
      if (slope(1) >= 1.0) nMax else nMin
    }
  }

  /** A choice of executor-count factorization (§3.3): `k = n × e_c`. */
  final case class Factorization(executors: Int, coresPerExecutor: Int, strandedCoresPerNode: Int)

  /** Factorize a total core count `k` into `(n, e_c)` by solving the paper's
    * §3.3 optimization: minimize stranded cores per node `C mod e_c`, subject
    * to the node's executors fitting in memory
    * (`e_m × ⌊C/e_c⌋ <= M`) and `k` being composed of whole executors
    * (we read the paper's third constraint `e_c × ⌊C/e_c⌋ = k` as requiring
    * `k` to divide into executors of `e_c` cores, i.e. `e_c | k`). Ties are
    * broken toward smaller `e_c`, which the paper prefers for finer
    * price-performance granularity.
    */
  def factorizeCores(
      k: Int,
      nodeCores: Int,
      nodeMemoryGb: Double,
      executorMemoryGb: Double,
  ): Option[Factorization] = {
    require(k >= 1 && nodeCores >= 1, s"bad k=$k / nodeCores=$nodeCores")
    val feasible = (1 to nodeCores).filter { ec =>
      val executorsPerNode = nodeCores / ec
      executorsPerNode >= 1 &&
      executorMemoryGb * executorsPerNode <= nodeMemoryGb &&
      k % ec == 0
    }
    if (feasible.isEmpty) None
    else {
      val best = feasible.minBy(ec => (nodeCores % ec, ec))
      Some(Factorization(executors = k / best, coresPerExecutor = best, strandedCoresPerNode = nodeCores % best))
    }
  }

  /** Strategy ADT used by the AutoExecutor rule's "executor selection
    * strategy" (§4.4): the default selects the count right before the curve
    * flattens (elbow); users can instead bound the tolerated slowdown.
    */
  sealed trait Strategy {
    def select(curve: IndexedSeq[(Int, Double)]): Int
  }
  final case class LimitedSlowdown(h: Double) extends Strategy {
    override def select(curve: IndexedSeq[(Int, Double)]): Int = limitedSlowdown(curve, h)
  }
  case object ElbowPoint extends Strategy {
    override def select(curve: IndexedSeq[(Int, Double)]): Int = elbow(curve)
  }
}
