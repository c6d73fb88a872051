package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import repro.core.PlanFeaturizer
import repro.sim.{StageProfile, TaskProfile}
import repro.tpcds.{Queries, Query}

/** One captured query: its single profiling run and its 20 plan features. */
final case class FixtureQuery(query: Query, profile: TaskProfile, features: Array[Double])

/** A captured workload plus the machine it was captured on. */
final case class Fixture(sfLabel: String, sf: Double, machine: Map[String, String], queries: IndexedSeq[FixtureQuery])

/** The benchmark's own versioned text format for captured profiles.
  *
  * It is built only from the public [[TaskProfile]]/[[StageProfile]] fields
  * and the feature values, never from Java serialization, so it survives
  * changes to those classes' on-disk formats. Doubles are written with
  * `Double.toString`, which parses back to the identical value.
  *
  * {{{
  * perfbench-fixture 1
  * sf <label> <sf>
  * machine <key> <value>            (one line per key)
  * features <name>,<name>,...
  * query <id> <wallMs> <driverMs> <stageCount>
  * feat <v>,<v>,...
  * stage <stageId> <jobIndex> <parentIds|-> <shuffleReadBytes> <inputBytes> <taskMs>,<taskMs>,...
  * }}}
  */
object Fixture {
  val Magic   = "perfbench-fixture"
  val Version = 1

  def write(f: Fixture, path: Path): Unit = {
    val sb = new StringBuilder
    def line(fields: Any*): Unit = sb.append(fields.mkString(" ")).append('\n')
    line(Magic, Version)
    line("sf", f.sfLabel, f.sf)
    f.machine.toSeq.sorted.foreach { case (k, v) => line("machine", k, v) }
    line("features", PlanFeaturizer.featureNames.mkString(","))
    f.queries.foreach { q =>
      val p = q.profile
      line("query", q.query.id, p.wallMs, p.driverMs, p.stages.size)
      line("feat", q.features.mkString(","))
      p.stages.foreach { s =>
        val parents = if (s.parentIds.isEmpty) "-" else s.parentIds.mkString(",")
        line("stage", s.stageId, s.jobIndex, parents, s.shuffleReadBytes, s.inputBytes, s.taskDurationsMs.mkString(","))
      }
    }
    if (path.getParent != null) Files.createDirectories(path.getParent)
    Files.writeString(path, sb.toString, UTF_8)
  }

  /** Read a fixture, rejecting it unless its query ids are exactly
    * `expectedIds` (by default `Queries.all`) and its feature layout is
    * `PlanFeaturizer.featureNames`.
    */
  def read(path: Path, expectedIds: IndexedSeq[String] = Queries.all.map(_.id)): Fixture = {
    val lines = Files.readAllLines(path, UTF_8).asScala.iterator.filter(_.nonEmpty).map(_.split(' ')).buffered
    def next(tag: String): Array[String] = {
      require(lines.hasNext, s"$path: expected '$tag', got end of file")
      val l = lines.next()
      require(l.head == tag, s"$path: expected '$tag', got '${l.head}'")
      l
    }
    val header = next(Magic)
    require(header(1).toInt == Version, s"$path: fixture version ${header(1)}, this reader knows $Version")
    val sfLine = next("sf")
    val machine = Iterator.continually(lines.head).takeWhile(_.head == "machine")
      .map { _ => val l = lines.next(); l(1) -> l.drop(2).mkString(" ") }.toMap
    val names = next("features")(1).split(',').toIndexedSeq
    require(names == PlanFeaturizer.featureNames,
      s"$path: feature layout ${names.mkString(",")} differs from PlanFeaturizer.featureNames")
    val queries = Iterator.continually(lines.hasNext).takeWhile(identity).map { _ =>
      val q = next("query")
      val features = next("feat")(1).split(',').map(_.toDouble)
      require(features.length == names.size, s"$path: ${q(1)} has ${features.length} features, expected ${names.size}")
      val stages = (0 until q(4).toInt).map { _ =>
        val s = next("stage")
        StageProfile(
          stageId = s(1).toInt,
          jobIndex = s(2).toInt,
          parentIds = if (s(3) == "-") Seq.empty else s(3).split(',').map(_.toInt).toSeq,
          shuffleReadBytes = s(4).toLong,
          inputBytes = s(5).toLong,
          taskDurationsMs = s(6).split(',').map(_.toDouble).toIndexedSeq,
        )
      }
      FixtureQuery(Queries.byId(q(1)), TaskProfile(q(1), stages, wallMs = q(2).toDouble, driverMs = q(3).toDouble), features)
    }.toIndexedSeq
    val ids = queries.map(_.query.id)
    require(ids == expectedIds, s"$path: query ids differ from the expected ${expectedIds.size} ids (got ${ids.size})")
    Fixture(sfLine(1), sfLine(2).toDouble, machine, queries)
  }
}
