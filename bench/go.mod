// gftpbench is a module of its own so that the benchmark builds from
// its own build file; it reaches the engine's internal packages through
// the gftpvc/ import-path prefix and the replace below.
module gftpvc/bench

go 1.22

require gftpvc v0.0.0

replace gftpvc => ../
