package repro.core

import java.nio.file.{Path, Paths}
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import org.apache.spark.sql.{SparkSession, SparkSessionExtensions}
import org.apache.spark.sql.catalyst.plans.logical.{Command, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule

/** AutoExecutor's Spark-optimizer integration (paper §4): a
  * `Rule[LogicalPlan]` that, for each query being optimized,
  *
  *   1. loads the parameter model from its registry path (cached after the
  *      first load — the inference step is on the live query path, §4.4);
  *   2. featurizes the optimized plan (Table 2 features);
  *   3. scores the model once to obtain the PPM parameters;
  *   4. evaluates the predicted PPM over candidate executor counts;
  *   5. applies the selection strategy and requests the chosen count.
  *
  * Step 5's `sc.requestTotalExecutors` has no effect on a local master, so
  * the request is surfaced through `spark.conf`
  * (`spark.repro.autoexecutor.requestedExecutors`) and an in-JVM
  * [[DecisionLog]]; the allocation-policy simulator consumes it the way the
  * cluster manager would (DESIGN.md substitution table). The rule returns
  * the plan unchanged — resource decisions never alter query semantics.
  *
  * Configuration (all runtime-settable):
  *   - `spark.repro.autoexecutor.enabled`   — gate, default false
  *   - `spark.repro.autoexecutor.modelPath` — a saved [[ParameterModel]] file
  *   - `spark.repro.autoexecutor.strategy`  — `elbow` or `slowdown:<H>`
  *   - `spark.repro.autoexecutor.maxExecutors` — candidate grid upper bound
  */
class AutoExecutorRule(spark: SparkSession) extends Rule[LogicalPlan] {
  import AutoExecutorRule._

  override def apply(plan: LogicalPlan): LogicalPlan = {
    val conf = spark.conf
    val enabled = conf.getOption(EnabledKey).contains("true")
    if (!enabled || plan.isInstanceOf[Command]) return plan

    val modelPath = conf.getOption(ModelPathKey)
      .getOrElse(throw new IllegalStateException(s"$EnabledKey is set but $ModelPathKey is not"))
    val maxN = conf.getOption(MaxExecutorsKey).map(_.toInt).getOrElse(48)
    val strategy = parseStrategy(conf.getOption(StrategyKey).getOrElse("elbow"))

    val (model, loadMs) = cachedModel(Paths.get(modelPath))

    val t0       = System.nanoTime()
    val features = PlanFeaturizer.featurize(plan)
    val featMs   = (System.nanoTime() - t0) / 1e6

    val t1      = System.nanoTime()
    val ppm     = model.predictPpm(features)
    val scoreMs = (System.nanoTime() - t1) / 1e6

    val curve = ppm.curve(1 to maxN)
    val n     = strategy.select(curve)

    conf.set(RequestedExecutorsKey, n.toString)
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
}

object AutoExecutorRule {
  val EnabledKey            = "spark.repro.autoexecutor.enabled"
  val ModelPathKey          = "spark.repro.autoexecutor.modelPath"
  val StrategyKey           = "spark.repro.autoexecutor.strategy"
  val MaxExecutorsKey       = "spark.repro.autoexecutor.maxExecutors"
  val RequestedExecutorsKey = "spark.repro.autoexecutor.requestedExecutors"

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

  /** Install on a live session via the experimental-methods hook — the
    * runtime-injectable counterpart of [[AutoExecutorExtensions]] for
    * sessions that were built without `spark.sql.extensions`. Idempotent.
    */
  def install(spark: SparkSession): Unit = {
    val existing = spark.experimental.extraOptimizations
    if (!existing.exists(_.isInstanceOf[AutoExecutorRule]))
      spark.experimental.extraOptimizations = existing :+ new AutoExecutorRule(spark)
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
  * executor-allocation API call, also used to measure §5.6 overheads.
  */
object DecisionLog {
  private val decisions = mutable.ArrayBuffer.empty[Decision]

  def record(d: Decision): Unit = synchronized { decisions += d }
  def all: IndexedSeq[Decision] = synchronized { decisions.toIndexedSeq }
  def last: Option[Decision]    = synchronized { decisions.lastOption }
  def clear(): Unit             = synchronized { decisions.clear() }
}

/** `spark.sql.extensions`-style builder (paper §4.4 uses the Spark
  * extensions feature, SPARK-18127): pass
  * `--conf spark.sql.extensions=repro.core.AutoExecutorExtensions` to
  * spark-submit to inject the rule at session build time.
  */
class AutoExecutorExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(extensions: SparkSessionExtensions): Unit =
    extensions.injectOptimizerRule(session => new AutoExecutorRule(session))
}
