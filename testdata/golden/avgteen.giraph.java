// Generated by the Green-Marl → Pregel compiler from procedure "avg_teen_cnt".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class AvgTeenCntComputation extends BasicComputation<IntWritable, AvgTeenCntValue, NullWritable, AvgTeenCntMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, AvgTeenCntValue, NullWritable> vertex, Iterable<AvgTeenCntMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 1: { // state0
                vertex.getValue()._t1 = 0L;
                if (((vertex.getValue().age >= 13L) && (vertex.getValue().age <= 19L))) {
                    for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                        AvgTeenCntMessage m = new AvgTeenCntMessage();
                        sendMessage(e.getTargetVertexId(), m);
                    }
                }
                break;
            }
            case 3: { // state2_recv
                long K = ((LongWritable) getAggregatedValue("K")).get();
                for (AvgTeenCntMessage m : messages) {
                    vertex.getValue()._t1 += 1L;
                }
                vertex.getValue().teen_cnt = vertex.getValue()._t1;
                if ((vertex.getValue().age > K)) {
                    aggregate("S_+=", new LongWritable(vertex.getValue().teen_cnt));
                    aggregate("C_+=", new LongWritable(1L));
                }
                break;
            }
        }
    }
}

public class AvgTeenCntMaster extends DefaultMasterCompute {
    int _state = 0;
    long K;
    long S;
    long C;
    double avg;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("K", LongOverwriteAggregator.class);
        registerPersistentAggregator("S", LongOverwriteAggregator.class);
        registerPersistentAggregator("C", LongOverwriteAggregator.class);
        registerPersistentAggregator("avg", DoubleOverwriteAggregator.class);
        registerAggregator("S_+=", LongSumAggregator.class);
        registerAggregator("C_+=", LongSumAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: {
                    S = 0L;
                    C = 0L;
                    _state = 1; break;
                }
                case 1: { // vertex state "state0"
                    setAggregatedValue("_state", new IntWritable(1));
                    _state = 2; return;
                }
                case 2: {
                    _state = 3; break;
                }
                case 3: { // vertex state "state2_recv"
                    setAggregatedValue("_state", new IntWritable(3));
                    setAggregatedValue("K", new LongWritable(K));
                    _state = 4; return;
                }
                case 4: {
                    _state = 5; break;
                }
                case 5: {
                    _state = 6; break;
                }
                case 6: {
                    S += ((LongWritable) getAggregatedValue("S_+=")).get();
                    C += ((LongWritable) getAggregatedValue("C_+=")).get();
                    _state = 7; break;
                }
                case 7: {
                    avg = ((C == 0L) ? 0.0 : ((1.0 * S) / C));
                    // procedure result: avg
                    haltComputation(); return;
                    haltComputation(); return;
                }
            }
        }
    }
}

public class AvgTeenCntValue implements Writable {
    public long age;
    public long teen_cnt;
    public long _t1;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeLong(age);
        out.writeLong(teen_cnt);
        out.writeLong(_t1);
    }
    public void readFields(DataInput in) throws IOException {
        age = in.readLong();
        teen_cnt = in.readLong();
        _t1 = in.readLong();
    }
}

public class AvgTeenCntMessage implements Writable {
    public void write(DataOutput out) throws IOException {
    }
    public void readFields(DataInput in) throws IOException {
    }
}
