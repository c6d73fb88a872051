package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical._

/** Extracts the paper's Table 2 feature vector from a Catalyst optimized
  * `LogicalPlan`: per-operator counts (14 operator kinds, as for TPC-DS in
  * the paper), total operator count, maximum plan depth, number of input
  * sources, estimated total input bytes, and estimated total rows processed
  * across all operators.
  *
  * Only compile-/optimization-time information is used — no runtime
  * statistics — because the same features must be available both when
  * training and when scoring inside the optimizer before execution (§3.4).
  */
object PlanFeaturizer {

  /** The 14 operator kinds counted individually (unrecognized operators are
    * pooled under `Other`).
    */
  val operatorKinds: IndexedSeq[String] = IndexedSeq(
    "Aggregate", "Project", "Join", "Filter", "Sort", "Union", "Window",
    "Expand", "Limit", "Generate", "Intersect", "Except", "Deduplicate", "Relation",
  )

  /** Feature vector layout; the parameter model is trained and scored on
    * exactly this ordering.
    */
  val featureNames: IndexedSeq[String] =
    operatorKinds ++ IndexedSeq("Other", "num_operators", "max_depth", "num_sources", "input_bytes", "rows_processed")

  /** Paper §5.7 ablation feature subsets (named after the paper's F0–F3). */
  val F0: IndexedSeq[String] = featureNames
  val F1: IndexedSeq[String] = IndexedSeq("input_bytes", "rows_processed", "max_depth", "num_operators", "Project", "Filter")
  val F2: IndexedSeq[String] = IndexedSeq("input_bytes", "rows_processed")
  val F3: IndexedSeq[String] = F1.filterNot(F2.contains)

  private def kindOf(p: LogicalPlan): String = p match {
    case _: Aggregate                  => "Aggregate"
    case _: Project                    => "Project"
    case _: Join                       => "Join"
    case _: Filter                     => "Filter"
    case _: Sort                       => "Sort"
    case _: Union                      => "Union"
    case _: Window                     => "Window"
    case _: Expand                     => "Expand"
    case _: GlobalLimit                => "Limit"
    case _: LocalLimit                 => "Limit"
    case _: Generate                   => "Generate"
    case _: Intersect                  => "Intersect"
    case _: Except                     => "Except"
    case _: Deduplicate                => "Deduplicate"
    case _: LeafNode                   => "Relation"
    case _                             => "Other"
  }

  private def allNodes(p: LogicalPlan): Seq[LogicalPlan] = p.collect { case n => n }

  private def maxDepth(p: LogicalPlan): Int =
    1 + (if (p.children.isEmpty) 0 else p.children.map(maxDepth).max)

  /** Size-based row estimate for one operator: its Catalyst `rowCount` when
    * the stats visitor provides one, else `sizeInBytes` divided by the
    * default-size row width of its output schema.
    */
  private def estimatedRows(p: LogicalPlan): Double = {
    val stats = p.stats
    stats.rowCount.map(_.toDouble).getOrElse {
      val width = math.max(p.output.map(_.dataType.defaultSize).sum, 1)
      (stats.sizeInBytes.toDouble / width).max(1.0)
    }
  }

  /** Featurize an optimized logical plan into the Table 2 vector. */
  def featurize(plan: LogicalPlan): Array[Double] = {
    val nodes  = allNodes(plan)
    val counts = nodes.groupBy(kindOf).map { case (k, ns) => k -> ns.size.toDouble }
    val leaves = nodes.collect { case l: LeafNode => l }
    val inputBytes = leaves.map(_.stats.sizeInBytes.toDouble).sum
    val rows       = nodes.map(estimatedRows).sum
    val base = (operatorKinds :+ "Other").map(k => counts.getOrElse(k, 0.0))
    (base ++ IndexedSeq(
      nodes.size.toDouble,
      maxDepth(plan).toDouble,
      leaves.size.toDouble,
      inputBytes,
      rows,
    )).toArray
  }

  /** Convenience: featurize the optimized plan of a DataFrame / SQL query. */
  def featurize(df: DataFrame): Array[Double] = featurize(df.queryExecution.optimizedPlan)

  private val featureIndex: Map[String, Int] = featureNames.zipWithIndex.toMap

  /** Project a full feature vector onto a named subset (ablation studies). */
  def project(full: Array[Double], subset: IndexedSeq[String]): Array[Double] = {
    require(subset.forall(featureIndex.contains), s"unknown features: ${subset.filterNot(featureIndex.contains)}")
    subset.map(n => full(featureIndex(n))).toArray
  }
}
