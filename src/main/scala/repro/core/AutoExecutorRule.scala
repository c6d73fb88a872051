package repro.core

import java.nio.file.{Path, Paths}
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import org.apache.spark.sql.SparkSessionExtensions
import org.apache.spark.sql.catalyst.plans.logical.{Command, LogicalPlan, Subquery}
import org.apache.spark.sql.catalyst.rules.Rule

/** AutoExecutor's Spark-optimizer integration (paper §4): a
  * `Rule[LogicalPlan]` that, for each query being optimized,
  *
  *   1. loads the parameter model from its registry path (cached after the
  *      first load — the inference step is on the live query path, §4.4);
  *   2. featurizes the optimized plan (Table 2 features);
  *   3. scores the model once to obtain the PPM parameters;
  *   4. evaluates the predicted PPM over the candidate executor counts
  *      [[ConfigSelector.FullRange]], `n ∈ [1,48]`;
  *   5. applies the selection strategy and requests the chosen count.
  *
  * Step 5's `sc.requestTotalExecutors` has no effect on a local master, so
  * the request is surfaced through the conf of the session being optimized
  * (`spark.repro.autoexecutor.requestedExecutors`, `.predictedTimes`) and an
  * in-JVM [[DecisionLog]]; the allocation-policy simulator consumes it the
  * way the cluster manager would (DESIGN.md substitution table). The rule
  * returns the plan unchanged — resource decisions never alter query semantics.
  *
  * Configuration (all runtime-settable):
  *   - `spark.repro.autoexecutor.enabled`   — gate, default false
  *   - `spark.repro.autoexecutor.modelPath` — a saved [[ParameterModel]] file
  *   - `spark.repro.autoexecutor.strategy`  — `elbow` or `slowdown:<H>`
  */
object AutoExecutorRule extends Rule[LogicalPlan] {
  val EnabledKey            = "spark.repro.autoexecutor.enabled"
  val ModelPathKey          = "spark.repro.autoexecutor.modelPath"
  val StrategyKey           = "spark.repro.autoexecutor.strategy"
  val RequestedExecutorsKey = "spark.repro.autoexecutor.requestedExecutors"
  val PredictedTimesKey     = "spark.repro.autoexecutor.predictedTimes"

  override def apply(plan: LogicalPlan): LogicalPlan = {
    val enabled = conf.getConfString(EnabledKey, "false") == "true"
    // Catalyst optimizes each subquery as its own plan under a `Subquery` root.
    if (!enabled || plan.isInstanceOf[Command] || plan.isInstanceOf[Subquery]) return plan

    val modelPath = Option(conf.getConfString(ModelPathKey, null))
      .getOrElse(throw new IllegalStateException(s"$EnabledKey is set but $ModelPathKey is not"))
    val strategy = parseStrategy(conf.getConfString(StrategyKey, "elbow"))

    val (model, loadMs) = cachedModel(Paths.get(modelPath))

    val t0       = System.nanoTime()
    val features = PlanFeaturizer.featurize(plan)
    val featMs   = (System.nanoTime() - t0) / 1e6

    val t1      = System.nanoTime()
    val ppm     = model.predictPpm(features)
    val scoreMs = (System.nanoTime() - t1) / 1e6

    val curve = ppm.curve(ConfigSelector.FullRange)
    val n     = strategy.select(curve)

    conf.setConfString(RequestedExecutorsKey, n.toString)
    conf.setConfString(PredictedTimesKey, curve.map(_._2).mkString(","))
    DecisionLog.record(Decision(
      planDigest = plan.semanticHash(),
      requestedExecutors = n,
      ppm = ppm,
      features = features,
      featurizationMs = featMs,
      scoringMs = scoreMs,
      modelLoadMs = loadMs,
    ))
    plan
  }

  /** Model cache: the paper caches loaded ONNX models inside the optimizer
    * process so the live query path pays load cost only once (§4.4).
    */
  private val cache = new ConcurrentHashMap[Path, (ParameterModel, Double)]()

  /** Returns (model, load time in ms — 0 on cache hits). A model trained on
    * another feature layout than [[PlanFeaturizer.featureNames]] is rejected:
    * it would score this featurizer's vectors silently wrong.
    */
  def cachedModel(path: Path): (ParameterModel, Double) = {
    val cached = cache.get(path)
    if (cached != null) (cached._1, 0.0)
    else {
      val t0    = System.nanoTime()
      val model = ParameterModel.load(path)
      require(model.forest.featureNames == PlanFeaturizer.featureNames,
        s"$path: model features ${model.forest.featureNames.mkString(",")} differ from PlanFeaturizer.featureNames")
      val ms    = (System.nanoTime() - t0) / 1e6
      cache.putIfAbsent(path, (model, ms))
      (model, ms)
    }
  }

  /** Drop cached models (tests retrain into the same path). */
  def invalidateCache(): Unit = cache.clear()

  def parseStrategy(s: String): ConfigSelector.Strategy = s match {
    case "elbow" => ConfigSelector.ElbowPoint
    case other if other.startsWith("slowdown:") =>
      ConfigSelector.LimitedSlowdown(other.stripPrefix("slowdown:").toDouble)
    case other => throw new IllegalArgumentException(s"unknown strategy '$other'")
  }
}

/** One predictive-allocation decision made by the rule. */
final case class Decision(
    planDigest: Int,
    requestedExecutors: Int,
    ppm: Ppm,
    features: Array[Double],
    featurizationMs: Double,
    scoringMs: Double,
    modelLoadMs: Double,
)

/** In-JVM record of the rule's decisions — the observable stand-in for the
  * executor-allocation API call, also used to measure §5.6 overheads. Keeps
  * the last `Capacity` decisions; the oldest is dropped first.
  */
object DecisionLog {
  val Capacity = 1024

  private val decisions = mutable.ArrayDeque.empty[Decision]

  def record(d: Decision): Unit = synchronized {
    if (decisions.size == Capacity) decisions.removeHead()
    decisions += d
  }
  def all: IndexedSeq[Decision] = synchronized { decisions.toIndexedSeq }
  def last: Option[Decision]    = synchronized { decisions.lastOption }
  def clear(): Unit             = synchronized { decisions.clear() }
}

/** The only way to wire the rule (paper §4.4, SPARK-18127):
  * `--conf spark.sql.extensions=repro.core.AutoExecutorExtensions`. A check-rule
  * builder, called once per session state, adds the rule (if absent) to
  * `experimental.extraOptimizations`, the batch SparkOptimizer runs after its
  * rewrites, so the rule sees the final plan (DESIGN.md, Catalyst integration).
  */
class AutoExecutorExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(extensions: SparkSessionExtensions): Unit =
    extensions.injectCheckRule { session =>
      val methods = session.experimental
      if (!methods.extraOptimizations.contains(AutoExecutorRule))
        methods.extraOptimizations :+= AutoExecutorRule
      _ => ()
    }
}
