// Instance generators for the PUC benchmark families plus SteinLib .stp I/O.
//
// The PUC set (Rosseti et al. 2001) is synthetic by construction; these
// generators reproduce the three families' structure at parametric sizes
// (see DESIGN.md's substitution table):
//   hc — hypercube graphs, terminals = even-parity vertices,
//        unit (u) or perturbed (p) costs;
//   cc — "code covering" Hamming graphs over a q-ary alphabet with randomly
//        chosen codeword terminals;
//   bip — sparse bipartite-flavored instances with a terminal layer and a
//        Steiner-vertex layer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "steiner/graph.hpp"

namespace steiner {

/// hc<d>{u|p}: d-dimensional hypercube; 2^d vertices, d*2^(d-1) edges.
Graph genHypercube(int dim, bool perturbedCosts, std::uint64_t seed = 1);

/// cc<d>-<a>{u|p}: Hamming graph H(d, a); a^d vertices; terminals are a
/// random "code" of roughly |V|/4 vertices.
Graph genCodeCover(int dim, int alphabet, bool perturbedCosts,
                   std::uint64_t seed = 1);

/// bip<nT>_<nS>{u|p}: terminal layer of nT vertices, Steiner layer of nS
/// vertices, each terminal linked to `degree` random Steiner vertices and
/// the Steiner layer connected by a sparse random subgraph.
Graph genBipartite(int numTerminals, int numSteiner, int degree,
                   bool perturbedCosts, std::uint64_t seed = 1);

/// Random geometric instance (for tests): n points in the unit square,
/// edges within radius, k random terminals, Euclidean costs.
Graph genGeometric(int n, int k, double radius, std::uint64_t seed = 1);

/// Grid instance: w x h grid with unit costs and k random terminals.
Graph genGrid(int w, int h, int k, std::uint64_t seed = 1);

/// Largest `Nodes` count readStp accepts, checked before the graph is
/// allocated. 2^20 is well above every SteinLib instance.
inline constexpr int kMaxStpNodes = 1 << 20;

/// SteinLib .stp format. readStp returns nullopt for a file it cannot read
/// in full: a node count outside 1..kMaxStpNodes, an edge or terminal that
/// does not parse or names no node, or a negative or non-finite cost.
bool writeStp(std::ostream& os, const Graph& g);
std::optional<Graph> readStp(std::istream& is);
bool writeStpFile(const std::string& path, const Graph& g);
std::optional<Graph> readStpFile(const std::string& path);

}  // namespace steiner
