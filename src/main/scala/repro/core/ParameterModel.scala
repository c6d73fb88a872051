package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import repro.ml.{RandomForest, RegressionTree}

/** The paper's parameter model `g: query characteristics -> {PPM scalars}`
  * (§3.4): a random-forest regressor whose targets are the PPM parameters
  * obtained by fitting the PPM family to per-query run-time observations
  * (Sparklens estimates during training, per §4.1's data augmentation).
  *
  * One training data point per query — the parametric approach the paper
  * contrasts with non-parametric per-configuration datasets — and one model
  * scoring per query at prediction time; candidate configurations are then
  * evaluated through the predicted PPM function, not the model.
  */
final case class ParameterModel(
    kind: PpmKind,
    forest: RandomForest,
) {

  /** Score once, instantiate the predicted PPM. */
  def predictPpm(features: Array[Double]): Ppm = kind.fromParams(forest.predict(features))

  /** Write the model file; see [[ParameterModel.load]] for the format. */
  def save(path: Path): Unit = {
    require(forest.featureNames.nonEmpty && forest.featureNames.forall(_.matches("[^\\s,]+")),
      s"feature names must be non-empty and free of spaces and commas: ${forest.featureNames.mkString("|")}")
    val sb = new StringBuilder
    sb.append(s"${ParameterModel.Magic} ${ParameterModel.Version}\nkind ${kind.name}\n")
    sb.append(s"features ${forest.featureNames.mkString(",")}\noutputs ${forest.nOutputs} trees ${forest.trees.size}\n")
    def node(n: RegressionTree.Node): Unit = n match {
      case RegressionTree.Leaf(v) => sb.append("L ").append(v.mkString(","))
      case RegressionTree.Split(feature, threshold, left, right) =>
        sb.append(s"S $feature $threshold "); node(left); sb.append(' '); node(right)
    }
    forest.trees.foreach { t => node(t); sb.append('\n') }
    if (path.getParent != null) Files.createDirectories(path.getParent)
    Files.writeString(path, sb.toString, UTF_8)
  }
}

object ParameterModel {

  /** One labelled training example: plan features plus the `(n, t)` curve —
    * actual runs or Sparklens estimates — the PPM is fit to for labels.
    */
  final case class TrainingExample(
      queryId: String,
      features: Array[Double],
      curve: IndexedSeq[(Int, Double)],
  )

  /** Fit PPM labels for every example and train the forest on them. */
  def train(
      kind: PpmKind,
      examples: IndexedSeq[TrainingExample],
      featureNames: IndexedSeq[String] = PlanFeaturizer.featureNames,
      rfParams: RandomForest.Params = RandomForest.Params(),
  ): ParameterModel = {
    require(examples.nonEmpty, "cannot train on an empty workload")
    val x = examples.map(_.features)
    val y = examples.map(e => kind.fit(e.curve).params)
    ParameterModel(kind, RandomForest.fit(x, y, featureNames, rfParams))
  }

  private val Magic   = "repro-model"
  private val Version = 1

  /** Read a model file written by [[ParameterModel.save]]:
    *
    * {{{
    * repro-model 1
    * kind <AE_PL|AE_AL>
    * features <name>,<name>,...
    * outputs <k> trees <T>
    * <one line per tree, preorder: `S <feature> <threshold>` | `L <v>,<v>,...`>
    * }}}
    *
    * Doubles are written with `Double.toString`, which parses back to the
    * identical bits, so a loaded model predicts exactly what the saved one
    * did. Any other magic, version or kind, an output width other than the
    * kind's parameter count, a split on a feature the header does not name,
    * or a tree line that is cut short or runs on is rejected.
    */
  def load(path: Path): ParameterModel = {
    def fail(msg: String): Nothing = throw new IllegalArgumentException(s"$path: $msg")
    val lines  = Files.readString(path, UTF_8).split('\n')
    val header = lines.take(4).toSeq.map(_.split(' ').toSeq)
    try {
      val (kindName, featureNames, nOutputs, nTrees) = header match {
        case Seq(Seq(Magic, v), Seq("kind", k), Seq("features", fs), Seq("outputs", o, "trees", t)) =>
          if (v != Version.toString) fail(s"format version $v, this reader knows $Version")
          (k, fs.split(',').toIndexedSeq, o.toInt, t.toInt)
        case _ => fail(s"not a $Magic file: header '${header.map(_.mkString(" ")).mkString(" | ")}'")
      }
      val kind = PpmKind.all.find(_.name == kindName).getOrElse(fail(s"unknown PPM kind $kindName"))
      if (nOutputs != kind.paramNames.size) fail(s"$kindName has ${kind.paramNames.size} outputs, file says $nOutputs")
      if (lines.length - 4 != nTrees) fail(s"header says $nTrees trees, file has ${lines.length - 4} tree lines")
      val trees = lines.drop(4).toIndexedSeq.zipWithIndex.map { case (line, t) =>
        val tokens = line.split(' ').iterator
        def token(): String = if (tokens.hasNext) tokens.next() else fail(s"tree $t is truncated")
        def node(): RegressionTree.Node = token() match {
          case "S" =>
            val feature = token().toInt
            if (feature < 0 || feature >= featureNames.size) fail(s"tree $t splits on feature $feature of ${featureNames.size}")
            val threshold = token().toDouble
            val left      = node()
            RegressionTree.Split(feature, threshold, left, node())
          case "L" =>
            val v = token().split(',').map(_.toDouble)
            if (v.length != nOutputs) fail(s"tree $t has a leaf of width ${v.length}, expected $nOutputs")
            RegressionTree.Leaf(v)
          case other => fail(s"tree $t has unknown node tag '$other'")
        }
        val root = node()
        if (tokens.hasNext) fail(s"tree $t has tokens after its last node")
        root
      }
      ParameterModel(kind, RandomForest(trees, featureNames, nOutputs))
    } catch { case e: NumberFormatException => fail(s"bad number: ${e.getMessage}") }
  }
}
