package repro.tpcds

import java.net.URI
import java.nio.file.{Files, Path => JPath}
import java.nio.file.attribute.PosixFilePermissions
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{FileSystem, LocalFileSystem, Path}
import org.apache.hadoop.fs.permission.FsPermission
import org.scalatest.funsuite.AnyFunSuite

class PosixLocalFileSystemSpec extends AnyFunSuite {

  private def open(fs: FileSystem): FileSystem = { fs.initialize(URI.create("file:///"), new Configuration()); fs }

  private def mode(p: JPath): String = PosixFilePermissions.toString(Files.getPosixFilePermissions(p))

  /** Modes of a file created with its parent directories, its `.crc`, a
    * directory made by `mkdirs` with the default permission, and a file
    * chmod-ed to 0640.
    */
  private def modes(fs: FileSystem): Seq[String] = {
    val root = Files.createTempDirectory("posix-fs")
    def path(rel: String) = new Path(root.resolve(rel).toUri)
    fs.create(path("a/b/part-0")).close()
    fs.mkdirs(path("c"), FsPermission.getDirDefault.applyUMask(FsPermission.getUMask(fs.getConf)))
    fs.create(path("d")).close()
    fs.setPermission(path("d"), new FsPermission("640"))
    Seq("a", "a/b", "a/b/part-0", "a/b/.part-0.crc", "c", "d").map(rel => mode(root.resolve(rel)))
  }

  test("creates files and directories with the stock local file system's modes") {
    val posix = modes(open(new PosixLocalFileSystem))
    assert(posix == modes(open(new LocalFileSystem)))
    assert(posix == Seq("rwxr-xr-x", "rwxr-xr-x", "rw-r--r--", "rw-r--r--", "rwxr-xr-x", "rw-r-----"))
  }
}
